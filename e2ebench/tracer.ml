(* Outside-in span tracer for the benchmark's traced run.

   Spans are recorded only around calls the benchmark itself makes into
   a layer's public functions ([Specs.load_all], [Fleet.create],
   [Fleet.arrive], [Fleet.run], [Sweep.execute]) and around the two
   calls the engine registry makes on the program's behalf: the engine
   factory (a compile) and the decision function it returns. The latter
   are reached by re-registering every engine under its own name with a
   wrapper that delegates to the original factory, so every
   [Scheduler.instantiate_private] — fleet slots, sweep runs — picks the
   wrapper up with no change to the program.

   Every workload runs on one domain, so the state is global: a span
   stack whose frames accumulate the time their children cover, so a
   span's self time is its duration minus that cover. Decisions are
   timed one by one, so counts and self times are exact; only every
   [decision_sample]-th decision is kept in the span log. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind =
  | Load_all
  | Fleet_create
  | Arrive
  | Fleet_run
  | Sweep_execute
  | Sweep_run
  | Compile
  | Decision

let kinds =
  [| Load_all; Fleet_create; Arrive; Fleet_run; Sweep_execute; Sweep_run;
     Compile; Decision |]

let kind_index = function
  | Load_all -> 0
  | Fleet_create -> 1
  | Arrive -> 2
  | Fleet_run -> 3
  | Sweep_execute -> 4
  | Sweep_run -> 5
  | Compile -> 6
  | Decision -> 7

let kind_name = function
  | Load_all -> "Specs.load_all"
  | Fleet_create -> "Fleet.create"
  | Arrive -> "Fleet.arrive"
  | Fleet_run -> "Fleet.run"
  | Sweep_execute -> "Sweep.execute"
  | Sweep_run -> "sweep.run"
  | Compile -> "engine.compile"
  | Decision -> "sched.decision"

let n_kinds = Array.length kinds
let decision_sample = 64
let max_depth = 64

(* One growable int column. *)
type col = { mutable a : int array; mutable n : int }

let col () = { a = Array.make 1024 0; n = 0 }

let push c v =
  if c.n = Array.length c.a then begin
    let b = Array.make (2 * c.n) 0 in
    Array.blit c.a 0 b 0 c.n;
    c.a <- b
  end;
  c.a.(c.n) <- v;
  c.n <- c.n + 1

let next_id = ref 0

(* open spans, innermost at [!depth - 1] *)
let st_id = Array.make max_depth 0
let st_kind = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_cover = Array.make max_depth 0  (* time covered by closed children, ns *)
let depth = ref 0

(* per-kind aggregates *)
let kind_count = Array.make n_kinds 0
let kind_total = Array.make n_kinds 0
let kind_self = Array.make n_kinds 0

(* the span log: id, parent, kind, start, end *)
let l_id = col ()
let l_parent = col ()
let l_kind = col ()
let l_start = col ()
let l_end = col ()

let new_id () =
  incr next_id;
  !next_id

let parent_id () = if !depth > 0 then st_id.(!depth - 1) else -1

let log ~id ~k ~t0 ~t1 =
  push l_id id;
  push l_parent (parent_id ());
  push l_kind k;
  push l_start t0;
  push l_end t1

let account k ~dur ~self =
  kind_count.(k) <- kind_count.(k) + 1;
  kind_total.(k) <- kind_total.(k) + dur;
  kind_self.(k) <- kind_self.(k) + self;
  if !depth > 0 then st_cover.(!depth - 1) <- st_cover.(!depth - 1) + dur

let span kind f =
  if !depth = max_depth then failwith "tracer: span stack overflow";
  let d = !depth in
  st_id.(d) <- new_id ();
  st_kind.(d) <- kind_index kind;
  st_cover.(d) <- 0;
  depth := d + 1;
  st_start.(d) <- now_ns ();
  let close () =
    let t1 = now_ns () in
    depth := d;
    let dur = t1 - st_start.(d) in
    account st_kind.(d) ~dur ~self:(dur - st_cover.(d));
    log ~id:st_id.(d) ~k:st_kind.(d) ~t0:st_start.(d) ~t1
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* ---------- sweep runs, inferred ---------- *)

(* [Sweep.execute] has no per-run hook. Each run instantiates its
   scheduler once, after building its connection, so inside an open
   [Sweep.execute] a run starts at an instantiation and ends at its last
   decision before the next one. Instantiations that no decision follows
   ([Sweep.execute]'s validation pass) open no run. *)
let in_sweep = ref false
let run_start = ref (-1)
let run_decisions = ref 0
let last_decision_end = ref 0
let cur_compile = ref 0  (* ns, the current run's instantiation *)
let runs_ns = col ()
let runs_compile_ns = ref 0

let flush_run () =
  if !run_start >= 0 && !run_decisions > 0 then begin
    let t1 = !last_decision_end in
    push runs_ns (t1 - !run_start);
    runs_compile_ns := !runs_compile_ns + !cur_compile;
    log ~id:(new_id ()) ~k:(kind_index Sweep_run) ~t0:!run_start ~t1
  end;
  run_start := -1;
  run_decisions := 0

let sweep_span f =
  in_sweep := true;
  Fun.protect
    ~finally:(fun () -> in_sweep := false)
    (fun () -> span Sweep_execute (fun () -> Fun.protect ~finally:flush_run f))

(* ---------- GC pauses from the runtime's event ring ---------- *)

(* Pause time is the outermost minor-collection and major-slice phases,
   read by polling this process's own ring from decisions and at the end
   of a round. *)
module Gc_pauses = struct
  let pause_ns = ref 0
  let lost = ref 0
  let nesting = ref 0
  let began = ref 0
  let cursor = ref None

  let counted = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        if counted phase then begin
          if !nesting = 0 then began := ts t;
          incr nesting
        end)
      ~runtime_end:(fun _ t phase ->
        if counted phase && !nesting > 0 then begin
          decr nesting;
          if !nesting = 0 then pause_ns := !pause_ns + (ts t - !began)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start () =
    match !cursor with
    | Some _ -> Runtime_events.resume ()
    | None ->
        Runtime_events.start ();
        cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    Option.iter
      (fun c -> ignore (Runtime_events.read_poll c callbacks None))
      !cursor

  let pause () =
    poll ();
    if !cursor <> None then Runtime_events.pause ()

  let reset () =
    poll ();
    pause_ns := 0;
    lost := 0
end

(* ---------- the wrapper engines ---------- *)

let enabled = ref false

let wrap_decision run =
  let k = kind_index Decision in
  fun env ->
    let t0 = now_ns () in
    run env;
    let t1 = now_ns () in
    let dur = t1 - t0 in
    account k ~dur ~self:dur;
    incr run_decisions;
    last_decision_end := t1;
    let c = kind_count.(k) in
    if c land (decision_sample - 1) = 0 then begin
      log ~id:(new_id ()) ~k ~t0 ~t1;
      if c land 255 = 0 then Gc_pauses.poll ()
    end

let wrap (e : Progmp_runtime.Engine.t) program =
  if not !enabled then e.factory program
  else begin
    if not (Domain.is_main_domain ()) then
      failwith "tracer: engines instantiated off the main domain";
    if !in_sweep then flush_run ();
    let t0 = now_ns () in
    let run = span Compile (fun () -> e.factory program) in
    (* compiles allocate heavily and make no decisions; drain the ring *)
    Gc_pauses.poll ();
    if !in_sweep then begin
      run_start := t0;
      cur_compile := now_ns () - t0
    end;
    wrap_decision run
  end

(* Re-register every engine under its own name, delegating to the
   original factory. Call once, after the registry is complete. *)
let install_engines () =
  List.iter
    (fun (e : Progmp_runtime.Engine.t) ->
      Progmp_runtime.Engine.register ~caps:e.caps e.engine_name (wrap e))
    (Progmp_runtime.Engine.all ())

(* ---------- per-round results ---------- *)

type summary = {
  counts : int array;
  totals : int array;  (** ns *)
  selfs : int array;  (** ns *)
  runs : float list;  (** inferred sweep-run durations, s *)
  runs_compile_s : float;  (** instantiations inside those runs *)
  gc_pause_s : float;
  lost_gc_events : int;
}

let reset () =
  List.iter
    (fun a -> Array.fill a 0 n_kinds 0)
    [ kind_count; kind_total; kind_self ];
  List.iter (fun c -> c.n <- 0) [ l_id; l_parent; l_kind; l_start; l_end; runs_ns ];
  run_start := -1;
  run_decisions := 0;
  runs_compile_ns := 0;
  Gc_pauses.reset ()

let summary () =
  Gc_pauses.poll ();
  {
    counts = Array.copy kind_count;
    totals = Array.copy kind_total;
    selfs = Array.copy kind_self;
    runs = List.init runs_ns.n (fun i -> float runs_ns.a.(i) *. 1e-9);
    runs_compile_s = float !runs_compile_ns *. 1e-9;
    gc_pause_s = float !Gc_pauses.pause_ns *. 1e-9;
    lost_gc_events = !Gc_pauses.lost;
  }

let count s kind = s.counts.(kind_index kind)
let total_s s kind = float s.totals.(kind_index kind) *. 1e-9
let self_s s kind = float s.selfs.(kind_index kind) *. 1e-9

(* Write the span log as TSV, times in ns from the earliest span. *)
let write_spans path =
  let t_base = ref max_int in
  for i = 0 to l_start.n - 1 do
    t_base := min !t_base l_start.a.(i)
  done;
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\tname\tstart_ns\tend_ns\n";
      for i = 0 to l_id.n - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" l_id.a.(i) l_parent.a.(i)
          (kind_name kinds.(l_kind.a.(i)))
          (l_start.a.(i) - !t_base)
          (l_end.a.(i) - !t_base)
      done)
