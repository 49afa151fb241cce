(* The traced driver: runs scenarios the way {!Dpc_engine.Session} does
   (through {!Scenario.to_spec} and the registry's [run_spec]), with a
   timing wrapper around {!Kcache.preparer} and the [inspect] hook, so
   each layer is timed from outside through its public functions.

   Span layout per scenario (all children of the scenario span):
   - [graph]: scenario start to the preparer call (dataset and CPU
     reference), and again from the inspect hook's return to the end
     (the tree apps check their result there);
   - [engine]: the preparer call (cache lookup), with child [prep] when
     the build thunk runs (parse, transform, finalize);
   - [sim]: preparer return to the inspect hook (device creation and
     functional execution);
   - [timing]: {!Dpc_sim.Device.report} inside the inspect hook. *)

module Scenario = Dpc_engine.Scenario
module Kcache = Dpc_engine.Kcache
module Registry = Dpc_apps.Registry
module Device = Dpc_sim.Device
module Metrics = Dpc_sim.Metrics
module Trace = Dpc_sim.Trace

type run = {
  sc : Scenario.t;
  result : (Metrics.report, exn) result;
  wall_s : float;
  sim_s : float;  (** preparer return to the inspect hook *)
  timing_s : float;  (** the report's timing replay *)
  builds : int;  (** build thunks run (Kcache misses) *)
  warp_insts : int;  (** warp issue slots, from {!Trace.totals_of_grids} *)
  grids : int;
  segments : int;
}

let segments_of grids =
  Array.fold_left
    (fun acc (g : Trace.grid_exec) ->
      Array.fold_left
        (fun acc (b : Trace.block_trace) -> acc + Array.length b.Trace.segments)
        acc g.Trace.blocks)
    0 grids

let run_scenario spans ~parent kcache (sc : Scenario.t) : run =
  let base = Kcache.preparer kcache in
  let sid = Spans.fresh spans in
  let t_start = Stat.now () in
  let prep_ret = ref nan and insp_ret = ref nan in
  let sim_s = ref 0.0 and timing_s = ref 0.0 in
  let builds = ref 0 and warp_insts = ref 0 and grids = ref 0 and segments = ref 0 in
  let preparer ~key ~interp ~cfgkey ~build =
    let t_call = Stat.now () in
    if Float.is_nan !prep_ret then
      ignore (Spans.add spans ~parent:sid "graph" t_start t_call);
    let r =
      Spans.with_span spans ~parent:sid "engine" (fun eid ->
          let build () =
            incr builds;
            Spans.with_span spans ~parent:eid "prep" (fun _ -> build ())
          in
          base ~key ~interp ~cfgkey ~build)
    in
    prep_ret := Stat.now ();
    r
  in
  let inspect dev =
    let t_insp = Stat.now () in
    sim_s := t_insp -. !prep_ret;
    ignore (Spans.add spans ~parent:sid "sim" !prep_ret t_insp);
    Spans.with_span spans ~parent:sid "timing" (fun _ -> ignore (Device.report dev));
    timing_s := Stat.now () -. t_insp;
    let gs = Dpc_sim.Interp.grids (Device.session dev) in
    warp_insts := (Trace.totals_of_grids gs).Trace.total_issue;
    grids := Array.length gs;
    segments := segments_of gs;
    insp_ret := Stat.now ()
  in
  let result =
    try
      let entry = Registry.find sc.Scenario.app in
      Ok (entry.Registry.run_spec (Scenario.to_spec ~preparer ~inspect sc))
    with e -> Error e
  in
  let t_end = Stat.now () in
  if not (Float.is_nan !insp_ret) then
    ignore (Spans.add spans ~parent:sid "graph" !insp_ret t_end);
  ignore (Spans.add spans ~id:sid ~parent "scenario" t_start t_end);
  { sc; result; wall_s = t_end -. t_start; sim_s = !sim_s; timing_s = !timing_s;
    builds = !builds;
    warp_insts = !warp_insts; grids = !grids; segments = !segments }

(* A traced pass over [scenarios] on a pool of [jobs] domains sharing one
   fresh program cache; every scenario span is a child of one [pass]
   span. *)
type pass = {
  runs : run list;
  pass_wall_s : float;
  jobs : int;
  kcache : Kcache.stats;
  gc : Stat.gc;
}

let pass spans ~jobs scenarios =
  let kcache = Kcache.create () in
  let pool = Dpc_util.Pool.create ~jobs () in
  let g0 = Stat.gc_now () in
  let t0 = Stat.now () in
  let runs =
    Spans.with_span spans ~parent:Spans.root "pass" (fun pid ->
        Dpc_util.Pool.parallel_map pool (run_scenario spans ~parent:pid kcache)
          scenarios)
  in
  let pass_wall_s = Stat.now () -. t0 in
  { runs; pass_wall_s; jobs; kcache = Kcache.stats kcache;
    gc = Stat.gc_diff g0 (Stat.gc_now ()) }
