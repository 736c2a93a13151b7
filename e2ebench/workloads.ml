(* The four workloads: their set-up, one round each, and the output
   checks, computed from the inputs the benchmark generated and the
   topology constants it passed in — never from the program's own
   verdicts. *)

open Mptcp_sim
open Mptcp_exp
module R = Progmp_runtime

type fleet_cfg = {
  groups : int;
  rate_per_group : float;  (** arrivals per second per group *)
  span : float;  (** simulated seconds *)
  engine : string;
  thin : bool;  (** {!Sweep.fleet_thin_paths} instead of the standard paths *)
  equilibrium : bool;  (** the live set must end a small share of arrivals *)
}

type sweep_cfg = {
  scenarios : string list;
  schedulers : string list;
  engines : string list;
  losses : float list;
  duration : float;
}

type kind = Fleet of fleet_cfg | Sweep of sweep_cfg

let workloads =
  [
    ( "fleet_steady",
      Fleet
        { groups = 32; rate_per_group = 150.0; span = 10.0;
          engine = "interpreter"; thin = false; equilibrium = true } );
    ( "fleet_compiled",
      Fleet
        { groups = 32; rate_per_group = 150.0; span = 3.0;
          engine = "threaded"; thin = false; equilibrium = false } );
    ( "fleet_crowd",
      Fleet
        { groups = 256; rate_per_group = 15.625; span = 10.0;
          engine = "interpreter"; thin = true; equilibrium = false } );
    ( "sweep_zoo",
      Sweep
        {
          scenarios = [ "bulk"; "stream"; "http2"; "dash" ];
          schedulers =
            [ "default"; "round_robin"; "redundant"; "opportunistic_redundant" ];
          engines = [ "interpreter"; "threaded" ];
          losses = [ 0.0; 0.01 ];
          duration = 4.0;
        } );
  ]

let find name = List.assoc_opt name workloads

let fleet_paths cfg =
  (if cfg.thin then Sweep.fleet_thin_paths else Sweep.fleet_group_paths)
    ~loss:0.0

let sweep_spec cfg ~seed =
  {
    Spec.default with
    Spec.scenarios = cfg.scenarios;
    schedulers = cfg.schedulers;
    engines = cfg.engines;
    losses = cfg.losses;
    seeds = [ seed ];
    duration = cfg.duration;
    invariants = true;
  }

(* ---------- set-up ---------- *)

let secs t0 t1 = float (t1 - t0) *. 1e-9

let traced kind f = if !Tracer.enabled then Tracer.span kind f else f ()

(* Everything before the first simulated event: the engines, the zoo
   through the front end, the workload's scheduler(s) instantiated on
   its engine(s) (for the sweep, the scheduler x engine set that
   [Sweep.execute] validates), and the fleet or the campaign's run
   list. With [trace], the set-up is traced too and leaves the wrapper
   engines installed, after the front end, whose registry-cached
   instances must stay unwrapped. Returns the front end's time and the
   total, in seconds. *)
let setup ?(trace = false) kind ~seed =
  let now = Tracer.now_ns in
  let t0 = now () in
  Progmp_compiler.Compile.register_engines ();
  Tracer.enabled := trace;
  let l0 = now () in
  traced Tracer.Load_all (fun () -> ignore (Schedulers.Specs.load_all ()));
  let l1 = now () in
  if trace then Tracer.install_engines ();
  let scheds, engines =
    match kind with
    | Fleet c -> ([ "default" ], [ c.engine ])
    | Sweep c -> (c.schedulers, c.engines)
  in
  List.iter
    (fun name ->
      let s = Option.get (R.Scheduler.find name) in
      List.iter
        (fun engine -> ignore (R.Scheduler.instantiate_private s ~engine))
        engines)
    scheds;
  (match kind with
  | Fleet c ->
      traced Tracer.Fleet_create (fun () ->
          ignore
            (Fleet.create ~seed ~cc:Congestion.Lia
               ~scheduler:(Option.get (R.Scheduler.find "default"), c.engine)
               ~groups:c.groups ~paths:(fleet_paths c) ()))
  | Sweep c -> ignore (Spec.runs (sweep_spec c ~seed)));
  let t1 = now () in
  Tracer.enabled := false;
  (secs l0 l1, secs t0 t1)

(* ---------- rounds ---------- *)

type round = {
  wall_s : float;  (** host time of the simulated span *)
  flows : int;  (** retired flows / finished sweep runs *)
  decisions : int;
  attempted : int;  (** flows handed to [Fleet.arrive] / sweep runs *)
  failed : int;  (** operations that broke a per-operation check *)
  broken : string list;  (** aggregate checks that failed *)
  counts : (string * int) list;  (** deterministic: the exact-repeat guard *)
  events : int;
  peak_pending : int;
  slots : int;
  pkts_created : int;
  peak_live : int;
  pushes : int;
  wire_bytes : int;
  delivered_bytes : int;
  fct_p50 : float;
  fct_p99 : float;
}

(* The FCT floor of a flow of [size] bytes: the fastest path's one-way
   delay plus serialization at the summed bandwidth of all paths. *)
let fct_floor paths size =
  let min_delay =
    List.fold_left
      (fun m (p : Path_manager.path_spec) -> Float.min m p.up.Link.delay)
      infinity paths
  in
  let bw =
    List.fold_left
      (fun s (p : Path_manager.path_spec) -> s +. p.up.Link.bandwidth)
      0.0 paths
  in
  min_delay +. (float size /. bw)

(* One open-loop fleet round, driven as [Fleet_run.run] drives a single
   shard, so each [Fleet.arrive] is the benchmark's own call. *)
let fleet_round c ~seed =
  let paths = fleet_paths c in
  let sched = Option.get (R.Scheduler.find "default") in
  let fleet =
    traced Tracer.Fleet_create (fun () ->
        Fleet.create ~seed ~cc:Congestion.Lia ~scheduler:(sched, c.engine)
          ~groups:c.groups ~paths ())
  in
  let bad_flows = ref 0 in
  let on_retire ~fct ~size ~delivered =
    if delivered <> size || fct < fct_floor paths size -. 1e-9 then
      incr bad_flows
  in
  let fm =
    Mptcp_obs.Fleet_metrics.attach ~interval:1.0 ~on_retire ~until:c.span fleet
  in
  let size_rng = Rng.stream ~seed (-1_000_001) in
  let arrival_rng = Rng.stream ~seed (-1_000_002) in
  let handed = ref 0 and offered = ref 0 in
  let rate = c.rate_per_group *. float c.groups in
  Traffic.drive ~clock:(Fleet.clock fleet) ~rng:arrival_rng
    ~rate:(fun _ -> rate)
    ~until:c.span
    (fun () ->
      let size = Traffic.draw_size Traffic.default_pareto size_rng in
      incr handed;
      offered := !offered + size;
      traced Tracer.Arrive (fun () -> Fleet.arrive fleet ~size));
  let t0 = Tracer.now_ns () in
  let events = traced Tracer.Fleet_run (fun () -> Fleet.run ~until:c.span fleet) in
  let wall_s = secs t0 (Tracer.now_ns ()) in
  let tot = Fleet.totals fleet in
  let samples = Mptcp_obs.Fleet_metrics.samples fm in
  let peak f = List.fold_left (fun m s -> max m (f s)) 0 samples in
  let broken =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        ( !handed = Fleet.arrivals fleet
          && Fleet.arrivals fleet = Fleet.completed fleet + Fleet.live fleet,
          Fmt.str "arrivals: handed %d, fleet %d, completed %d + live %d"
            !handed (Fleet.arrivals fleet) (Fleet.completed fleet)
            (Fleet.live fleet) );
        ( tot.Fleet.t_delivered_bytes <= !offered,
          Fmt.str "delivered %d > offered %d" tot.Fleet.t_delivered_bytes
            !offered );
        ( tot.Fleet.t_delivered_bytes <= tot.Fleet.t_wire_bytes,
          Fmt.str "delivered %d > wire %d" tot.Fleet.t_delivered_bytes
            tot.Fleet.t_wire_bytes );
        ( (not c.equilibrium) || 50 * Fleet.live fleet <= !handed,
          Fmt.str "not in equilibrium: %d of %d arrivals still live"
            (Fleet.live fleet) !handed );
      ]
  in
  let slots = Fleet.slot_count fleet in
  {
    wall_s;
    flows = tot.Fleet.t_completed;
    decisions = tot.Fleet.t_executions;
    attempted = !handed;
    failed = !bad_flows;
    broken;
    counts =
      [
        ("arrivals", tot.Fleet.t_arrivals);
        ("sched.decisions", tot.Fleet.t_executions);
        ("eventq.events", events);
        ("fleet.slots", slots);
        ("tcp.wire_bytes", tot.Fleet.t_wire_bytes);
      ];
    events;
    peak_pending = peak (fun s -> s.Mptcp_obs.Fleet_metrics.s_heap_nodes);
    slots;
    pkts_created = R.Packet.Pool.created (Fleet.packet_pool fleet);
    peak_live = tot.Fleet.t_peak_live;
    pushes = tot.Fleet.t_pushes;
    wire_bytes = tot.Fleet.t_wire_bytes;
    delivered_bytes = tot.Fleet.t_delivered_bytes;
    fct_p50 = Mptcp_obs.Fleet_metrics.fct_percentile fm 0.5;
    fct_p99 = Mptcp_obs.Fleet_metrics.fct_percentile fm 0.99;
  }

(* Summed path bandwidth of a sweep scenario, bytes/s, from the
   scenario constructors the sweep itself uses. [stream] moves the wifi
   rate up to 5.5 MB/s while it runs. *)
let scenario_capacity = function
  | "bulk" ->
      List.fold_left
        (fun s (p : Path_manager.path_spec) -> s +. p.up.Link.bandwidth)
        0.0
        (Apps.Scenario.mininet_two_subflows ~rtt_ratio:2.0 ())
  | scenario ->
      List.fold_left
        (fun s (p : Path_manager.path_spec) ->
          let bw = p.up.Link.bandwidth in
          s +. if scenario = "stream" && p.path_name = "wifi" then Float.max bw 5_500_000.0 else bw)
        0.0 (Apps.Scenario.wifi_lte ())

let bulk_bytes = 4_000_000

let sweep_round c ~seed =
  let spec = sweep_spec c ~seed in
  let t0 = Tracer.now_ns () in
  let result =
    (if !Tracer.enabled then Tracer.sweep_span else fun f -> f ())
      (fun () ->
        (* one job: with two domains the process's top heap differed
           between runs of one seed (8.4-12.8 MB) *)
        Sweep.execute ~jobs:1 spec)
  in
  let wall_s = secs t0 (Tracer.now_ns ()) in
  let report =
    match result with
    | Ok r -> r
    | Error msg -> failwith ("Sweep.execute: " ^ msg)
  in
  let run_ok (r : Sweep.run_result) =
    let p = r.r_params in
    r.r_inv_total = 0
    && (p.Spec.scenario <> "bulk" || r.r_completion = None
       || r.r_delivered = bulk_bytes)
    && r.r_goodput_bps <= 8.0 *. scenario_capacity p.Spec.scenario
  in
  let runs = report.Sweep.runs in
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let wire =
    sum (fun r -> List.fold_left (fun a (_, b) -> a + b) 0 r.Sweep.r_subflow_bytes)
  in
  let decisions = sum (fun r -> r.Sweep.r_executions) in
  let expected = Spec.run_count spec in
  {
    wall_s;
    flows = List.length runs;
    decisions;
    attempted = expected;
    failed = List.length (List.filter (fun r -> not (run_ok r)) runs);
    broken =
      (if List.length runs = expected then []
       else [ Fmt.str "sweep returned %d of %d runs" (List.length runs) expected ]);
    counts =
      [
        ("runs", List.length runs);
        ("sched.decisions", decisions);
        ("tcp.wire_bytes", wire);
      ];
    events = 0;
    peak_pending = 0;
    slots = 0;
    pkts_created = 0;
    peak_live = 0;
    pushes = sum (fun r -> r.Sweep.r_pushes);
    wire_bytes = wire;
    delivered_bytes = sum (fun r -> r.Sweep.r_delivered);
    fct_p50 = 0.0;
    fct_p99 = 0.0;
  }

let round kind ~seed =
  match kind with Fleet c -> fleet_round c ~seed | Sweep c -> sweep_round c ~seed

(* [fleet_compiled]'s simulated totals must equal the interpreter's on
   the same inputs; checked on a shortened run, outside any timing. *)
let cross_engine_check kind ~seed =
  match kind with
  | Fleet c when c.engine <> "interpreter" ->
      let short = { c with groups = 4; span = 1.0 } in
      let totals engine =
        let r = fleet_round { short with engine } ~seed in
        (r.counts, r.delivered_bytes, r.pushes)
      in
      if totals c.engine = totals "interpreter" then []
      else [ Fmt.str "%s totals differ from interpreter's" c.engine ]
  | _ -> []
