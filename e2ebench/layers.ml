(* Per-layer metrics of a traced run. Counts, GC deltas and rates come
   from the untraced rounds of that run (tracing allocates and takes
   time of its own); span times come from the traced rounds. Each value
   is the median over rounds. Metrics a workload cannot show from the
   outside (fleet hosting on a sweep, the sweep pool on a fleet) read 0;
   README.md lists them. *)

open Workloads

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The share of a traced round that the layer spans must account for
   (README.md, "Accounting"). *)
let accounting_tolerance = function Fleet _ -> 0.99 | Sweep _ -> 0.95

let metrics kind ~load_s ~heap_growth_words
    ~(plain : (round * (Gc.stat * Gc.stat) * float) list)
    ~(traced : (round * float * Tracer.summary) list) =
  let pm f = median (List.map f plain) in
  let tm f = median (List.map f traced) in
  let first, _, _ = List.hd plain in
  let gc f = pm (fun (_, (g0, g1), _) -> f g0 g1) in
  let span_total k = tm (fun (_, _, s) -> Tracer.total_s s k) in
  let span_self k = tm (fun (_, _, s) -> Tracer.self_s s k) in
  let decisions_s = span_total Tracer.Decision in
  let sweep = match kind with Sweep _ -> true | Fleet _ -> false in
  let runs (_, _, s) = s.Tracer.runs in
  let sum = List.fold_left ( +. ) 0.0 in
  let core_self (_, _, s) =
    if sweep then
      sum s.Tracer.runs
      -. Tracer.total_s s Tracer.Decision
      -. s.Tracer.runs_compile_s
    else Tracer.self_s s Tracer.Fleet_run
  in
  (* share of the traced round's wall that the layer spans account for *)
  let accounted (r, round_wall, s) =
    if sweep then
      (sum s.Tracer.runs +. Tracer.total_s s Tracer.Compile
      -. s.Tracer.runs_compile_s)
      /. r.wall_s
    else
      (Tracer.total_s s Tracer.Fleet_create +. Tracer.total_s s Tracer.Fleet_run)
      /. round_wall
  in
  [
    ("lang.load_s", "s", load_s);
    ("engine.compiles", "count", tm (fun (_, _, s) -> float (Tracer.count s Tracer.Compile)));
    ("engine.compile_s", "s", span_total Tracer.Compile);
    ("sched.decisions", "count", float first.decisions);
    ("sched.decision_s", "s", decisions_s);
    ( "sched.ns_per_decision", "ns",
      tm (fun (_, _, s) ->
          Tracer.total_s s Tracer.Decision *. 1e9
          /. float (max 1 (Tracer.count s Tracer.Decision))) );
    ("fleet.arrive_s", "s", span_self Tracer.Arrive);
    ("fleet.slots", "count", float first.slots);
    ( "fleet.slot_reuse", "ratio",
      if sweep then 0.0
      else float (first.attempted - first.slots) /. float (max 1 first.attempted) );
    ("fleet.pkts_created", "count", float first.pkts_created);
    ( "fleet.bytes_per_conn", "B",
      if sweep then 0.0
      else
        float (heap_growth_words * (Sys.word_size / 8))
        /. float (max 1 first.peak_live) );
    ("eventq.events", "count", float first.events);
    ("eventq.events_per_s", "events/s", pm (fun (r, _, _) -> float r.events /. r.wall_s));
    ("eventq.peak_pending", "count", float first.peak_pending);
    ("sim.core_self_s", "s", tm core_self);
    ("tcp.pushes", "count", float first.pushes);
    ("tcp.wire_mb", "MB", float first.wire_bytes /. 1e6);
    ( "tcp.useful_ratio", "ratio",
      float first.delivered_bytes /. float (max 1 first.wire_bytes) );
    ( "gc.minor_words_per_decision", "words",
      gc (fun g0 g1 -> g1.Gc.minor_words -. g0.Gc.minor_words)
      /. float (max 1 first.decisions) );
    ( "gc.promoted_mb", "MB",
      gc (fun g0 g1 -> g1.Gc.promoted_words -. g0.Gc.promoted_words)
      *. float (Sys.word_size / 8) /. 1e6 );
    ( "gc.minor_collections", "count",
      gc (fun g0 g1 -> float (g1.Gc.minor_collections - g0.Gc.minor_collections)) );
    ( "gc.major_collections", "count",
      gc (fun g0 g1 -> float (g1.Gc.major_collections - g0.Gc.major_collections)) );
    ("gc.pause_s", "s", tm (fun (_, _, s) -> s.Tracer.gc_pause_s));
    ("sweep.run_s_median", "s", if sweep then tm (fun t -> median (runs t)) else 0.0);
    ( "sweep.run_s_max", "s",
      if sweep then tm (fun t -> List.fold_left Float.max 0.0 (runs t)) else 0.0 );
    ( "sweep.domain_busy", "ratio",
      if sweep then
        tm (fun ((r, _, _) as t) -> sum (runs t) /. r.wall_s)
      else 0.0 );
    ("trace.accounted_share", "ratio", tm accounted);
    (* rounds alternate untraced / traced, so pairing them cancels the
       host's drift *)
    ( "trace.overhead_s", "s",
      median
        (List.map2
           (fun (u, _, _) (t, _, _) -> t.wall_s -. u.wall_s)
           plain traced) );
  ]
