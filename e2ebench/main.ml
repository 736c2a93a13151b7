(* The repository benchmark: one command, four workloads, five
   end-to-end metrics; [--trace 1] reports the per-layer metrics from a
   separate traced run. See README.md in this directory. *)

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
   workloads: fleet_steady fleet_compiled fleet_crowd sweep_zoo"

let die code fmt = Fmt.kstr (fun s -> prerr_endline s; exit code) fmt

let median = Layers.median

let setup_probes = 21
let state_dir = ".e2ebench"

let mkdir_p dir =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ state_dir; dir ]

(* ---------- set-up, measured in fresh processes ---------- *)

(* Each probe is this executable in set-up-only mode: a cold process, so
   every probe pays the front end and engine compiles the workload's
   first set-up pays (in-process repeats would hit the program's
   caches). The median of [setup_probes] probes is reported. *)
let probe_setup ~workload ~seed =
  let exe = Sys.executable_name in
  let one () =
    let ic =
      Unix.open_process_args_in exe
        [| exe; "--setup-probe"; workload; "--seed"; string_of_int seed |]
    in
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l -> (
        match String.split_on_char ' ' l |> List.map float_of_string_opt with
        | [ Some load; Some total ] -> (load, total)
        | _ -> die 1 "set-up probe printed %S" l)
    | _ -> die 1 "set-up probe failed"
  in
  let samples = List.init setup_probes (fun _ -> one ()) in
  (median (List.map fst samples), median (List.map snd samples))

(* ---------- the exact-repeat guard ---------- *)

let check_repeat ~what (reference : (string * int) list) counts =
  if counts <> reference then begin
    let show l =
      String.concat ", " (List.map (fun (k, v) -> Fmt.str "%s=%d" k v) l)
    in
    die 3 "exact-repeat guard: %s differ\n  expected %s\n  got      %s" what
      (show reference) (show counts)
  end

(* Counts of one (workload, seed) on this build are kept in the
   checkout and compared on every later run. *)
let check_repeat_across_runs ~workload ~seed counts =
  let dir = Filename.concat state_dir "counts" in
  mkdir_p dir;
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let file = Filename.concat dir (Fmt.str "%s-%d-%s" workload seed build) in
  let render l = String.concat "" (List.map (fun (k, v) -> Fmt.str "%s %d\n" k v) l) in
  if Sys.file_exists file then begin
    let previous = In_channel.with_open_bin file In_channel.input_all in
    if previous <> render counts then
      die 3 "exact-repeat guard: counts of %s seed %d differ from an \
             earlier run of this build (%s):\n%s---\n%s" workload seed file
        previous (render counts)
  end
  else Out_channel.with_open_bin file (fun oc -> output_string oc (render counts))

(* ---------- output ---------- *)

let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    if not (Float.is_finite v) then die 1 "metric %s is %f" name v;
    Fmt.str "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Fmt.pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}@."
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let report_stderr metrics =
  List.iter (fun (n, u, v) -> Fmt.epr "  %-30s %16.6f %s@." n v u) metrics

(* ---------- a measured run ---------- *)

type measured = {
  r : Workloads.round;
  gc : Gc.stat * Gc.stat;  (** quick_stat before / after *)
  round_wall_s : float;  (** the whole round, set-up of the fleet included *)
}

let measured ?(start = ignore) kind ~seed =
  Gc.compact ();
  start ();
  let g0 = Gc.quick_stat () in
  let t0 = Tracer.now_ns () in
  let r = Workloads.round kind ~seed in
  let round_wall_s = float (Tracer.now_ns () - t0) *. 1e-9 in
  { r; gc = (g0, Gc.quick_stat ()); round_wall_s }

let main workload ~seed ~seconds ~trace =
  let kind =
    match Workloads.find workload with
    | Some k -> k
    | None -> die 2 "unknown workload %s\n%s" workload usage
  in
  let load_s, setup_s = probe_setup ~workload ~seed in
  ignore (Workloads.setup ~trace kind ~seed);
  let trace_file suffix =
    let dir = Filename.concat state_dir "trace" in
    mkdir_p dir;
    Filename.concat dir (Fmt.str "%s-%d%s.tsv" workload seed suffix)
  in
  if trace then Tracer.write_spans (trace_file "-setup");
  let deadline = Tracer.now_ns () + (seconds * 1_000_000_000) in
  (* untraced rounds; with tracing, each is followed by a traced one *)
  let plain = ref [] and traced = ref [] in
  (* the process's top heap through its first round, and its growth
     in that round: later rounds reuse a heap the runtime does not
     shrink, so they would only add their fragmentation to it *)
  let top_heap_words = ref 0 and heap_growth_words = ref 0 in
  let rec loop () =
    let m = measured kind ~seed in
    if !plain = [] then begin
      top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      heap_growth_words := !top_heap_words - (fst m.gc).Gc.heap_words
    end;
    plain := m :: !plain;
    if trace then begin
      let start () =
        Tracer.reset ();
        Tracer.enabled := true;
        Tracer.Gc_pauses.start ()
      in
      let m = measured ~start kind ~seed in
      Tracer.enabled := false;
      Tracer.Gc_pauses.pause ();
      traced := (m, Tracer.summary ()) :: !traced
    end;
    if Tracer.now_ns () < deadline then loop ()
  in
  loop ();
  let all_plain = List.rev !plain and all_traced = List.rev !traced in
  (* the first round (pair) warms the heap and the code; it is checked
     and counted but not timed *)
  let timed = function _ :: (_ :: _ as rest) -> rest | l -> l in
  let plain = timed all_plain and traced = timed all_traced in
  let first = (List.hd all_plain).r in
  List.iter
    (fun m -> check_repeat ~what:"counts between rounds" first.counts m.r.counts)
    (all_plain @ List.map fst all_traced);
  (match all_traced with
  | [] -> ()
  | (_, s0) :: _ ->
      let compiles s = [ ("engine.compiles", Tracer.count s Tracer.Compile);
                         ("sched.decisions", Tracer.count s Tracer.Decision) ] in
      List.iter
        (fun (_, s) ->
          check_repeat ~what:"traced counts between rounds" (compiles s0) (compiles s))
        all_traced);
  check_repeat_across_runs ~workload ~seed first.counts;
  let broken =
    List.concat_map (fun m -> m.r.broken) (all_plain @ List.map fst all_traced)
    @ Workloads.cross_engine_check kind ~seed
  in
  List.iter (fun b -> Fmt.epr "check failed: %s@." b) broken;
  let attempted = List.fold_left (fun a m -> a + m.r.attempted) 0 all_plain in
  let failed = List.fold_left (fun a m -> a + m.r.failed) 0 all_plain in
  let med f = median (List.map f plain) in
  let wall = med (fun m -> m.r.wall_s) in
  Fmt.epr "%s seed %d: %d untraced round(s), %d traced; fct p50 %.1f ms p99 %.1f ms@."
    workload seed (List.length all_plain) (List.length all_traced)
    (first.fct_p50 *. 1e3) (first.fct_p99 *. 1e3);
  Fmt.epr "round walls (s): %s@."
    (String.concat " " (List.map (fun m -> Fmt.str "%.3f" m.r.wall_s) all_plain));
  let metrics =
    if not trace then
      [
        ("setup_s", "s", setup_s);
        ("wall_s", "s", wall);
        ("flows_per_s", "flows/s", med (fun m -> float m.r.flows /. m.r.wall_s));
        ( "decisions_per_s", "decisions/s",
          med (fun m -> float m.r.decisions /. m.r.wall_s) );
        ( "peak_heap_mb", "MB",
          float (!top_heap_words * (Sys.word_size / 8)) /. 1e6 );
      ]
    else
      Layers.metrics kind ~load_s ~heap_growth_words:!heap_growth_words
        ~plain:(List.map (fun m -> (m.r, m.gc, m.round_wall_s)) plain)
        ~traced:(List.map (fun (m, s) -> (m.r, m.round_wall_s, s)) traced)
  in
  report_stderr metrics;
  if trace then begin
    let share =
      List.find_map
        (fun (n, _, v) -> if n = "trace.accounted_share" then Some v else None)
        metrics
      |> Option.get
    in
    let lost =
      List.fold_left (fun a (_, s) -> a + s.Tracer.lost_gc_events) 0 all_traced
    in
    if lost > 0 then
      Fmt.epr "gc.pause_s undercounts: %d runtime events were lost@." lost;
    let tolerance = Layers.accounting_tolerance kind in
    Fmt.epr "accounting: layer spans cover %.4f of the traced round (%s %.2f)@."
      share
      (if share >= tolerance then "within" else "OUTSIDE")
      tolerance;
    Tracer.write_spans (trace_file "");
    Fmt.epr "spans of the set-up and of the last traced round written to %s@."
      (trace_file "{-setup,}")
  end;
  print_result ~correct:(broken = []) ~attempted ~failed metrics

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | a :: _ -> die 2 "unexpected argument %s\n%s" a usage
  in
  let opts = parse [] args in
  let int_opt k =
    match List.assoc_opt k opts with
    | None -> die 2 "missing --%s\n%s" k usage
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> i
        | None -> die 2 "--%s wants an integer, got %s" k v)
  in
  match List.assoc_opt "setup-probe" opts with
  | Some workload -> (
      match Workloads.find workload with
      | None -> die 2 "unknown workload %s" workload
      | Some kind ->
          let load_s, total_s = Workloads.setup kind ~seed:(int_opt "seed") in
          Fmt.pr "%.9f %.9f@." load_s total_s)
  | None ->
      let workload =
        match List.assoc_opt "workload" opts with
        | Some w -> w
        | None -> die 2 "missing --workload\n%s" usage
      in
      let seconds = int_opt "seconds" in
      if seconds < 1 then die 2 "--seconds must be at least 1";
      let trace =
        match int_opt "trace" with
        | 0 -> false
        | 1 -> true
        | _ -> die 2 "--trace takes 0 or 1"
      in
      main workload ~seed:(int_opt "seed") ~seconds ~trace
