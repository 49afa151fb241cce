(* The benchmark: one process runs a workload ([suite], [sweep], [serve],
   or [all] of them), checks every output, and prints every metric by
   name and unit.  The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   With [--trace 0] the metrics are the end-to-end ones, measured on
   untraced passes.  With [--trace 1] a separate traced pass gives the
   per-layer ones, plus the tracing overhead against an untraced pass of
   the same inputs; its spans are written to [.perfbench/]. *)

open Perfbench
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session
module Kcache = Dpc_engine.Kcache
module Metrics = Dpc_sim.Metrics
module H = Dpc_apps.Harness
module Json = Dpc_prof.Json

let out_dir = ".perfbench"

(* --- results ------------------------------------------------------------------ *)

type result = {
  attempted : int;
  failed : int;
  digest : string;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let print_metrics prefix ms =
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-36s %16.6f %s\n" (prefix ^ n) v u)
    ms

let json_line ~correct ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct); ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) ->
                 (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
               ms)) ])

(* --- shared pieces --------------------------------------------------------- *)

(* One small fixed run of every app (the middle tiny scale), so code
   paging and first-use set-up happen before timing. *)
let warm_up session interp =
  List.iter
    (fun app ->
      let scale = Inputs.tiny_scale app 3 in
      ignore (Session.run session (Scenario.make ?interp ~cfg:"k20c" ~scale ~app H.Basic)))
    Inputs.apps

(* Each workload sets up this many times and reports the median. *)
let setup_reps = 9

(* Set-up repeated [setup_reps] times; the median, and the last product. *)
let setup f =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    let dt, r = Stat.time f in
    times := dt :: !times;
    last := Some r
  done;
  (Stat.median !times, Option.get !last)

(* Untraced passes of a batch workload: each pass runs [scenarios] in a
   fresh session of [jobs] workers.  Passes continue while another one
   fits in [seconds] (at least two, so digests can be compared). *)
type batch_pass = {
  wall : float;
  outcomes : Session.outcome list;
  finished : float list;  (** seconds from the pass start to each run's end *)
  gc : Stat.gc;
  rss_mb : float;
      (** the process's peak RSS so far, read after the pass: the heap
          keeps growing over passes, so only the first pass's reading
          measures a fixed amount of work *)
}

(* Each run's end is stamped by the session's [inspect] hook, which runs
   after the run's launches, just before its report. *)
let batch_pass ~jobs scenarios =
  let lock = Mutex.create () and stamps = ref [] in
  let inspect _ _ = Mutex.protect lock (fun () -> stamps := Stat.now () :: !stamps) in
  let g0 = Stat.gc_now () in
  let t0 = Stat.now () in
  let outcomes = Session.run_all (Session.create ~jobs ~inspect ()) scenarios in
  let wall = Stat.now () -. t0 in
  { wall; outcomes; finished = List.map (fun t -> t -. t0) !stamps;
    gc = Stat.gc_diff g0 (Stat.gc_now ()); rss_mb = Stat.peak_rss_mb () }

let batch_passes ~jobs ~seconds check scenarios =
  let t0 = Stat.now () in
  let rec go acc =
    let p = batch_pass ~jobs scenarios in
    Check.pass_results check (List.map (fun (o : Session.outcome) -> o.result) p.outcomes);
    let acc = p :: acc in
    let elapsed = Stat.now () -. t0 in
    if List.length acc < 2 || elapsed +. p.wall <= seconds then go acc
    else List.rev acc
  in
  go []

let cycles_of_outcomes os =
  List.filter_map
    (fun (o : Session.outcome) ->
      match o.result with
      | Ok r -> Some (o.scenario, r.Metrics.cycles)
      | Error _ -> None)
    os

let end_to_end ~peak_rss_mb ~setup_s ~pass_wall ~per_s ~p50_ms ~p99_ms ~speedup check =
  let sb, sf = speedup in
  [ ("setup_s", setup_s, "s");
    ("pass_wall_s", pass_wall, "s");
    ("scenarios_per_s", per_s, "1/s");
    ("latency_p50_ms", p50_ms, "ms");
    ("latency_p99_ms", p99_ms, "ms");
    ("sim_speedup_over_basic", sb, "x");
    ("sim_speedup_over_flat", sf, "x");
    ("peak_rss_mb", peak_rss_mb, "MB");
    ("verified_ratio", Check.verified_ratio check, "ratio") ]

(* --- per-layer metrics from a traced pass ------------------------------------ *)

let sum_int f xs = Float.of_int (List.fold_left (fun a x -> a + f x) 0 xs)

let report_sum f (runs : Traced.run list) =
  sum_int (fun (r : Traced.run) -> match r.result with Ok m -> f m | Error _ -> 0) runs

let app_wall (runs : Traced.run list) app =
  Stat.sum
    (List.filter_map
       (fun (r : Traced.run) -> if r.sc.Scenario.app = app then Some r.wall_s else None)
       runs)

let per_layer ?(serve = []) ?gc ~overhead (p : Traced.pass) spans =
  let gc = Option.value gc ~default:p.gc in
  let self = Spans.self_times spans in
  let st = Spans.self_time self in
  let runs = p.runs in
  let warp = sum_int (fun (r : Traced.run) -> r.warp_insts) runs in
  let segs = sum_int (fun (r : Traced.run) -> r.segments) runs in
  let k = p.kcache in
  let lookups = k.Kcache.hits + k.Kcache.misses in
  let per n d = if d > 0.0 then n /. d else 0.0 in
  let serve_metric n = Option.value (List.assoc_opt n serve) ~default:0.0 in
  [ ("graph.pre_s", st "graph", "s");
    ("prep.build_s", st "prep", "s");
    ("prep.builds", sum_int (fun (r : Traced.run) -> r.builds) runs, "count");
    ("engine.lookup_s", st "engine", "s");
    ("engine.kcache_hit_ratio", per (Float.of_int k.Kcache.hits) (Float.of_int lookups), "ratio");
    ("engine.pool_idle_s",
     (Float.of_int p.jobs *. p.pass_wall_s)
     -. Stat.sum (List.map (fun (r : Traced.run) -> r.wall_s) runs), "s");
    ("sim.exec_s", st "sim", "s");
    ("sim.warp_insts", warp, "count");
    ("sim.exec_ns_per_warp_inst", per (1e9 *. st "sim") warp, "ns");
    ("sim.grids", sum_int (fun (r : Traced.run) -> r.grids) runs, "count");
    ("sim.device_launches", report_sum (fun m -> m.Metrics.device_launches) runs, "count");
    ("timing.replay_s", st "timing", "s");
    ("timing.segments", segs, "count");
    ("timing.ns_per_segment", per (1e9 *. st "timing") segs, "ns");
    ("memmodel.dram_transactions", report_sum (fun m -> m.Metrics.dram_transactions) runs, "count");
    ("memmodel.l2_hits", report_sum (fun m -> m.Metrics.l2_hits) runs, "count");
    ("memmodel.bank_conflict_replays", report_sum (fun m -> m.Metrics.bank_conflict_replays) runs, "count");
    ("memmodel.mshr_stalls", report_sum (fun m -> m.Metrics.mshr_stalls) runs, "count");
    ("alloc.calls", report_sum (fun m -> m.Metrics.alloc_calls) runs, "count");
    ("alloc.pool_fallbacks", report_sum (fun m -> m.Metrics.pool_fallbacks) runs, "count");
    ("gc.minor_mwords", gc.Stat.minor_mw, "Mword");
    ("gc.promoted_mwords", gc.Stat.promoted_mw, "Mword");
    ("gc.major_collections", Float.of_int gc.Stat.majors, "count");
    ("export.s", st "export", "s");
    ("export.bytes", serve_metric "export.bytes", "B") ]
  @ List.map (fun n -> (n, serve_metric n, "ms"))
      [ "serve.queue_wait_ms"; "serve.server_ms"; "serve.transport_ms";
        "serve.gen_late_ms" ]
  @ List.map
      (fun app -> (Printf.sprintf "app.%s.wall_s" app, app_wall runs app, "s"))
      Inputs.apps
  @ [ ("trace.overhead_ratio", overhead, "ratio") ]

let write_spans name spans =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s.json" name) in
  let oc = open_out path in
  output_string oc (Json.to_string (Spans.to_json spans));
  close_out oc;
  Printf.printf "  spans: %d written to %s\n" (List.length spans) path

let print_self_times spans =
  let self = Spans.self_times spans in
  let total = Hashtbl.fold (fun _ v a -> a +. v) self 0.0 in
  Printf.printf "  self time by span (s, share of traced wall):\n";
  List.iter
    (fun (n, v) -> Printf.printf "    %-16s %9.4f  %5.1f%%\n" n v (100. *. v /. total))
    (List.sort (fun (_, a) (_, b) -> Float.compare b a)
       (Hashtbl.fold (fun n v acc -> (n, v) :: acc) self []))

(* --- suite and sweep ---------------------------------------------------------- *)

(* One row per app: median wall per variant across the passes. *)
let print_app_table passes =
  let variants = List.map H.variant_to_string H.all_variants in
  Printf.printf "  %-10s %9s" "app" "wall_s";
  List.iter (Printf.printf " %12s") variants;
  print_newline ();
  let pass_total = Stat.median (List.map (fun p -> p.wall) passes) in
  List.iter
    (fun app ->
      let cell v =
        Stat.median
          (List.map
             (fun p ->
               Stat.sum
                 (List.filter_map
                    (fun (o : Session.outcome) ->
                      if o.scenario.Scenario.app = app
                         && H.variant_to_string o.scenario.Scenario.variant = v
                      then Some o.elapsed_s else None)
                    p.outcomes))
             passes)
      in
      let cells = List.map cell variants in
      let total = Stat.sum cells in
      Printf.printf "  %-10s %9.3f" app total;
      List.iter (Printf.printf " %12.3f") cells;
      Printf.printf "   (%4.1f%% of pass)\n" (100. *. total /. pass_total))
    Inputs.apps

let batch_setup ~interp inputs =
  setup (fun () ->
      let scenarios = inputs () in
      warm_up (Session.create ()) interp;
      scenarios)

let batch_untraced ~name ~jobs ~interp ~seconds inputs =
  let setup_s, scenarios = batch_setup ~interp inputs in
  let check = Check.create () in
  let passes = batch_passes ~jobs ~seconds check scenarios in
  let n = Float.of_int (List.length scenarios) in
  let walls = List.map (fun p -> p.wall) passes in
  Printf.printf "%s: %d scenarios, jobs=%d, %d passes, pass walls (s): %s\n" name
    (List.length scenarios) jobs (List.length passes)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
  Printf.printf "  gc minor Mwords per pass: %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.1f" p.gc.Stat.minor_mw) passes));
  Printf.printf "  peak RSS after each pass (MB): %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.1f" p.rss_mb) passes));
  if name = "suite" then print_app_table passes;
  (* A batch's latency: time from the pass start until p% of its runs
     have finished, median over the passes. *)
  let done_ms q = Stat.median (List.map (fun p -> 1e3 *. Stat.quantile q p.finished) passes) in
  let speedup = Check.speedups (cycles_of_outcomes (List.hd passes).outcomes) in
  { attempted = check.attempted; failed = check.failed; digest = Check.digest check;
    metrics =
      end_to_end ~peak_rss_mb:(List.hd passes).rss_mb ~setup_s ~pass_wall:(Stat.median walls)
        ~per_s:(Stat.median (List.map (fun w -> n /. w) walls))
        ~p50_ms:(done_ms 0.5) ~p99_ms:(done_ms 0.99) ~speedup check }

(* The hotspots ROADMAP item 2 asks about, from the suite's traced pass. *)
let print_hotspots (p : Traced.pass) untraced_wall =
  let find app v =
    List.find
      (fun (r : Traced.run) -> r.sc.Scenario.app = app && r.sc.Scenario.variant = v)
      p.runs
  in
  let gc_wall = app_wall p.runs "GC" in
  Printf.printf "  hotspots:\n";
  Printf.printf "    GC share of suite wall: %.1f%% (%.3f s of %.3f s traced)\n"
    (100. *. gc_wall /. p.pass_wall_s) gc_wall p.pass_wall_s;
  let gcf = find "GC" H.Flat in
  Printf.printf "    GC no-dp: sim %.3f s over %d grids = %.2f ms/grid\n" gcf.sim_s gcf.grids
    (1e3 *. gcf.sim_s /. Float.of_int (Int.max 1 gcf.grids));
  List.iter
    (fun (r : Traced.run) ->
      Printf.printf "    %-9s %-12s timing %.4f s over %6d grids, %8d segments = %8.1f ns/segment\n"
        r.sc.Scenario.app (H.variant_to_string r.sc.Scenario.variant) r.timing_s r.grids
        r.segments
        (1e9 *. r.timing_s /. Float.of_int (Int.max 1 r.segments)))
    (List.filter
       (fun (r : Traced.run) -> List.mem r.sc.Scenario.app [ "TH"; "TD"; "GC"; "SSSP" ])
       p.runs);
  Printf.printf "    gc minor Mwords per suite pass: %.1f (traced), untraced pass wall %.3f s\n"
    p.gc.Stat.minor_mw untraced_wall

(* The traced pass [traced ()] between two untraced passes of the same
   scenarios, all three checked.  The first pass warms the heap (a
   process's first pass ran 5-20% slower than its later ones), so the
   tracing overhead is the traced pass's wall over the second untraced
   pass's. *)
let between_untraced ~name ~jobs check scenarios traced =
  let untraced () =
    let u = batch_pass ~jobs scenarios in
    Check.pass_results check (List.map (fun (o : Session.outcome) -> o.result) u.outcomes);
    u.wall
  in
  let u1 = untraced () in
  let (p : Traced.pass), x = traced () in
  Check.pass_results check (List.map (fun (r : Traced.run) -> r.result) p.runs);
  let u2 = untraced () in
  let overhead = p.pass_wall_s /. u2 in
  Printf.printf
    "%s (traced): untraced passes %.3f s and %.3f s, traced pass %.3f s between them, \
     overhead %.3fx\n"
    name u1 u2 p.pass_wall_s overhead;
  (p, x, u2, overhead)

let batch_traced ~name ~jobs ~interp inputs =
  let _, scenarios = batch_setup ~interp inputs in
  let check = Check.create () in
  let spans = Spans.create () in
  let p, (), untraced_wall, overhead =
    between_untraced ~name ~jobs check scenarios (fun () ->
        (Traced.pass spans ~jobs scenarios, ()))
  in
  let all = Spans.all spans in
  print_self_times all;
  if name = "suite" then print_hotspots p untraced_wall;
  (match Spans.nesting_errors all with
   | [] -> ()
   | e :: _ -> failwith ("span tree not nested: " ^ e));
  write_spans name all;
  { attempted = check.attempted; failed = check.failed; digest = Check.digest check;
    metrics = per_layer ~overhead p all }

(* --- serve --------------------------------------------------------------------- *)

(* Distinct requests; the arrival stream cycles through them. *)
let serve_distinct = List.length (Inputs.serve_requests ())

(* Fixed offered load: about a quarter of the daemon's capacity for
   these requests, measured at about 580 requests/s on a 2-core x86 host
   (the backlog grows at 600/s), when the client ran a domain per
   connection.  At half the capacity (290/s), five seeds spread p99
   latency by 89% and p50 by 31%.  Queueing amplifies every slowdown of
   the host, and a 2-vCPU host shared with other machines slows down
   often. *)
let serve_rate = 150.0

let serve_conns = 2
let socket = Filename.concat out_dir "dpcd.sock"

(* What the client keeps of each streamed outcome record: the digest of
   its simulated report ([None] for an error record) and its cycles. *)
type kept = { report : string option; cycles : float }

let keep j =
  match Json.member "report" j with
  | Some rep ->
    { report = Some (Digest.string (Json.to_string rep));
      cycles = Option.fold ~none:nan ~some:Json.number (Json.member "cycles" rep) }
  | None -> { report = None; cycles = nan }

(* Set-up, repeated [setup_reps] times: start the daemon, draw the requests,
   and send one cold cycle of the distinct requests, one at a time over
   one connection.  The last daemon stays up for an open-loop window of
   [window] seconds; returns the median set-up time, the requests, the
   replies and what the daemon reported when stopped. *)
let serve_run ~window ~seed =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let lifetime = Float.to_int window + 120 in
  let with_daemon f =
    let t0 = Stat.now () in
    let d = Load.start ~lifetime socket in
    match f t0 with
    | r -> (r, Load.stop d)
    | exception e ->
      Unix.kill d.Load.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.Load.pid);
      raise e
  in
  let setup () =
    let requests = Array.of_list (Inputs.serve_requests ()) in
    ignore
      (Load.open_loop ~path:socket ~conns:1
         ~arrivals:(Array.make (Array.length requests) 0.0)
         ~request:(fun i -> requests.(i)) ~keep:ignore);
    requests
  in
  let times = ref [] in
  let timed t0 =
    let requests = setup () in
    times := (Stat.now () -. t0) :: !times;
    requests
  in
  for _ = 2 to setup_reps do
    ignore (with_daemon timed)
  done;
  let (requests, replies), stats =
    with_daemon (fun t0 ->
        let requests = timed t0 in
        let arrivals = Inputs.arrivals ~rate:serve_rate ~seconds:window seed in
        ( requests,
          Load.open_loop ~path:socket ~conns:serve_conns ~arrivals
            ~request:(fun i -> requests.(i mod Array.length requests)) ~keep ))
  in
  match stats with
  | None -> failwith "dpcd exited without reporting its counters"
  | Some stats -> (Stat.median !times, requests, replies, stats)

let reply_digest (r : kept Load.reply) =
  if r.failed > 0 || r.records = [] then None
  else
    Some
      (Digest.to_hex
         (Digest.string
            (String.concat ","
               (List.map (fun k -> Option.value k.report ~default:"error") r.records))))

let reply_cycles requests (r : kept Load.reply) =
  List.map2 (fun sc k -> (sc, k.cycles)) requests.(r.index mod Array.length requests) r.records

let server_s (r : kept Load.reply) = Stat.sum (List.map snd r.scenario_ends)

(* The replies cycle through the distinct requests (reply [i] is for
   request [i mod serve_distinct]): each later reply must reproduce its
   first-cycle counterpart's reports. *)
let check_replies replies =
  let check = Check.create () in
  Check.cycled check ~period:serve_distinct
    (Array.of_list (List.map reply_digest replies));
  check

(* The window is cut into [serve_slices] equal slices by due time; each
   timing metric is the median of its per-slice values.  The host's
   slow spells last seconds, so the median keeps one that covers less
   than half the window from deciding the run's figure.  A 30 s window
   at 150 requests/s gives slices of about 450 requests, about 4 of them
   beyond each slice's p99 and 45 beyond the window's.  Over twelve
   seeds, p99 spread by 28% with one or three slices, and by 17% with
   ten. *)
let serve_slices = 10

let serve_untraced ~seconds ~seed =
  let setup_s, requests, replies, daemon = serve_run ~window:seconds ~seed in
  let check = check_replies replies in
  let lat (r : kept Load.reply) = 1e3 *. (r.done_ -. r.due) in
  let n = List.length replies in
  let start = (List.hd replies).due in
  let window = List.fold_left (fun m (r : kept Load.reply) -> Float.max m r.done_) 0.0 replies -. start in
  let slices =
    List.init serve_slices (fun k ->
        List.filter
          (fun (r : kept Load.reply) ->
            Int.min (serve_slices - 1)
              (Float.to_int (Float.of_int serve_slices *. (r.due -. start) /. seconds))
            = k)
          replies)
  in
  let per_slice f = Stat.median (List.map f slices) in
  let q p rs = Stat.quantile p (List.map lat rs) in
  let scenarios rs = List.fold_left (fun a (r : kept Load.reply) -> a + List.length r.records) 0 rs in
  let busy rs = Stat.sum (List.map server_s rs) in
  Printf.printf
    "serve: %d requests (%d distinct, 4 scenarios each) at %.0f/s over %.2f s, %d connections\n"
    n serve_distinct serve_rate window serve_conns;
  let row name f =
    Printf.printf "  %-28s%s\n" name (String.concat "" (List.map f slices))
  in
  row "per slice: requests" (fun rs -> Printf.sprintf " %6d" (List.length rs));
  row "  latency p50 (ms)" (fun rs -> Printf.sprintf " %6.2f" (q 0.5 rs));
  row "  latency p99 (ms)" (fun rs -> Printf.sprintf " %6.2f" (q 0.99 rs));
  let p99 = q 0.99 replies in
  Printf.printf "  window: latency p50 %.2f ms, p99 %.2f ms (%d beyond p99)\n" (q 0.5 replies)
    p99 (List.length (List.filter (fun r -> lat r > p99) replies));
  let parts name f =
    let xs = List.map (fun r -> 1e3 *. f r) replies in
    Printf.printf "  %-28s p50 %8.3f ms, p99 %8.3f ms, max %8.3f ms\n" name
      (Stat.quantile 0.5 xs) (Stat.quantile 0.99 xs) (List.fold_left Float.max 0.0 xs)
  in
  parts "generator lateness" (fun r -> r.Load.queued -. r.Load.due);
  parts "wait for a connection" (fun r -> r.Load.sent -. r.Load.queued);
  parts "daemon time" server_s;
  parts "transport and daemon queue" (fun r -> r.Load.done_ -. r.Load.sent -. server_s r);
  Printf.printf
    "  daemon busy %.2f s of %.2f s (%.0f%%): offered %.0f scenarios/s, capacity %.0f/s\n"
    (busy replies) window
    (100. *. busy replies /. window)
    (Float.of_int (scenarios replies) /. window)
    (Float.of_int (scenarios replies) /. busy replies);
  let first_cycle =
    List.filter (fun (r : kept Load.reply) -> r.index < serve_distinct && r.failed = 0) replies
  in
  let speedup = Check.speedups (List.concat_map (reply_cycles requests) first_cycle) in
  { attempted = check.attempted; failed = check.failed; digest = Check.digest check;
    metrics =
      end_to_end ~peak_rss_mb:daemon.Load.peak_rss_mb ~setup_s
        ~pass_wall:
          (per_slice (fun rs ->
               busy rs *. Float.of_int serve_distinct /. Float.of_int (List.length rs)))
        ~per_s:(per_slice (fun rs -> Float.of_int (scenarios rs) /. busy rs))
        ~p50_ms:(per_slice (q 0.5)) ~p99_ms:(per_slice (q 0.99)) ~speedup check }

(* Request spans from the client's view: [serve.queue] from due to send,
   then one [serve.scenario] per streamed outcome, placed by arrival time
   and the server's wall clock. *)
let reply_spans spans (r : kept Load.reply) =
  let rid = Spans.fresh spans in
  ignore (Spans.add spans ~parent:rid "serve.queue" r.due r.sent);
  List.iter
    (fun (arrive, el) ->
      ignore (Spans.add spans ~parent:rid "serve.scenario" (Float.max r.sent (arrive -. el)) arrive))
    r.scenario_ends;
  ignore (Spans.add spans ~id:rid ~parent:Spans.root "serve.request" r.due r.done_)

(* A traced local replay of one cycle of requests, request by request on
   one warm cache (as the daemon runs them), exporting each outcome. *)
let serve_replay spans requests =
  let kcache = Kcache.create () in
  let bytes = ref 0 in
  let g0 = Stat.gc_now () in
  let t0 = Stat.now () in
  let runs =
    Spans.with_span spans ~parent:Spans.root "pass" (fun pid ->
        List.concat_map
          (fun scs ->
            Spans.with_span spans ~parent:pid "request" (fun rid ->
                List.map
                  (fun sc ->
                    let r = Traced.run_scenario spans ~parent:rid kcache sc in
                    Spans.with_span spans ~parent:rid "export" (fun _ ->
                        let o = { Session.scenario = sc; result = r.result; elapsed_s = r.wall_s } in
                        bytes := !bytes + String.length (Json.to_string (Dpc_experiments.Export.outcome_json o)));
                    r)
                  scs))
          (Array.to_list requests))
  in
  let p =
    { Traced.runs; pass_wall_s = Stat.now () -. t0; jobs = 1;
      kcache = Kcache.stats kcache; gc = Stat.gc_diff g0 (Stat.gc_now ()) }
  in
  (p, !bytes)

let serve_traced ~seconds ~seed =
  let _, requests, replies, daemon = serve_run ~window:(seconds /. 2.0) ~seed in
  let daemon_gc = daemon.Load.gc in
  let check = check_replies replies in
  let spans = Spans.create () in
  List.iter (reply_spans spans) replies;
  let scenarios = List.concat (Array.to_list requests) in
  let replay_check = Check.create () in
  let p, bytes, _, overhead =
    between_untraced ~name:"serve replay" ~jobs:1 replay_check scenarios (fun () ->
        serve_replay spans requests)
  in
  let all = Spans.all spans in
  let med f = Stat.median (List.map f replies) in
  let serve =
    [ ("export.bytes", Float.of_int bytes);
      ("serve.queue_wait_ms", med (fun r -> 1e3 *. (r.Load.sent -. r.Load.queued)));
      ("serve.server_ms", med (fun r -> 1e3 *. server_s r));
      ("serve.transport_ms", med (fun r -> 1e3 *. (r.Load.done_ -. r.Load.sent -. server_s r)));
      ("serve.gen_late_ms", med (fun r -> 1e3 *. (r.Load.queued -. r.Load.due))) ]
  in
  Printf.printf "serve (traced): %d requests in the open-loop window; replay of %d scenarios\n"
    (List.length replies) (List.length scenarios);
  Printf.printf "  daemon gc over its life: minor %.1f Mwords, promoted %.1f Mwords, %d major\n"
    daemon_gc.Stat.minor_mw daemon_gc.Stat.promoted_mw daemon_gc.Stat.majors;
  print_self_times all;
  (match Spans.nesting_errors all with
   | [] -> ()
   | e :: _ -> failwith ("span tree not nested: " ^ e));
  write_spans "serve" all;
  let attempted = check.attempted + replay_check.attempted in
  let failed = check.failed + replay_check.failed in
  { attempted; failed; digest = Check.digest check;
    metrics = per_layer ~serve ~gc:daemon_gc ~overhead p all }

(* --- main ---------------------------------------------------------------------- *)

let run_workload ~trace ~seconds ~seed = function
  | "suite" ->
    let interp = Some Dpc_sim.Interp.Bytecode in
    if trace then batch_traced ~name:"suite" ~jobs:1 ~interp Inputs.suite
    else batch_untraced ~name:"suite" ~jobs:1 ~interp ~seconds Inputs.suite
  | "sweep" ->
    let inputs () = Inputs.sweep seed in
    if trace then batch_traced ~name:"sweep" ~jobs:2 ~interp:None inputs
    else batch_untraced ~name:"sweep" ~jobs:2 ~interp:None ~seconds inputs
  | "serve" -> if trace then serve_traced ~seconds ~seed else serve_untraced ~seconds ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

let usage = "bench.exe --workload suite|sweep|serve|all --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME suite, sweep, serve or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time per workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names =
    match !workload with
    (* [serve] forks its daemon, which [Unix.fork] refuses once any
       domain has been spawned, as [sweep]'s pool does: it goes first. *)
    | "all" -> [ "serve"; "suite"; "sweep" ]
    | ("suite" | "sweep" | "serve") as w -> [ w ]
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  let multi = List.length names > 1 in
  let results =
    List.map
      (fun name ->
        let r = run_workload ~trace:(!trace = 1) ~seconds:!seconds ~seed:!seed name in
        Printf.printf "%s: digest %s, %d attempted, %d failed\n" name r.digest r.attempted
          r.failed;
        print_metrics (if multi then name ^ "." else "") r.metrics;
        (name, r))
      names
  in
  let attempted = List.fold_left (fun a (_, r) -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a (_, r) -> a + r.failed) 0 results in
  let metrics =
    List.concat_map
      (fun (name, r) ->
        List.map (fun (n, v, u) -> ((if multi then name ^ "." else "") ^ n, v, u)) r.metrics)
      results
  in
  print_endline (json_line ~correct:(failed = 0) ~attempted ~failed metrics)
