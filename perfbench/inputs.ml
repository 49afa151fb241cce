(* Workload inputs, generated from the benchmark's seed.

   The seed picks the tiny sweep cases' datasets, the sweep's order and
   the serve arrival times.  The composition of each workload (how many
   scenarios of which app, variant, preset, allocator and scale) is
   fixed, so two seeds cost about the same and their figures are
   comparable. *)

module Scenario = Dpc_engine.Scenario
module Registry = Dpc_apps.Registry
module H = Dpc_apps.Harness
module Alloc = Dpc_alloc.Allocator
module Rng = Dpc_util.Rng

let apps = List.map (fun e -> e.Registry.name) Registry.all
let presets = [ "k20c"; "k20c-deep"; "milo832" ]
let allocs = [ Alloc.Pool; Alloc.Default; Alloc.Halloc ]

(* The paper's evaluation: 7 apps x 5 variants at default scale on the
   K20c model, bytecode tier. *)
let suite () =
  List.concat_map
    (fun app ->
      List.map
        (fun v -> Scenario.make ~cfg:"k20c" ~interp:Dpc_sim.Interp.Bytecode ~app v)
        H.all_variants)
    apps

(* Tiny scales: per app, seven levels evenly spread over a range of
   [scale] values (see each app's [default_scale]); tiny case [i] takes
   level [i mod 7]. *)
let tiny_scale app i =
  let lo, hi =
    match app with
    | "SSSP" -> (48, 160)
    | "SpMV" -> (96, 384)
    | "PageRank" -> (64, 256)
    | "GC" | "BFS-Rec" -> (4, 6)
    | "TH" | "TD" -> (32, 64)
    | app -> invalid_arg ("Inputs.tiny_scale: " ^ app)
  in
  lo + ((hi - lo) * (i mod 7) / 6)

(* The serve workload's scale: one fixed small size per app. *)
let micro_scale = function
  | "SSSP" -> 16
  | "SpMV" -> 32
  | "PageRank" -> 16
  | "GC" | "BFS-Rec" -> 3
  | "TH" | "TD" -> 256
  | app -> invalid_arg ("Inputs.micro_scale: " ^ app)

let quarter_scale = function
  | "SSSP" -> 750
  | "SpMV" -> 2000
  | "PageRank" -> 1500
  | "GC" | "BFS-Rec" -> 10
  | "TH" | "TD" -> 6
  | app -> invalid_arg ("Inputs.quarter_scale: " ^ app)

(* One comparison point: every variant of one (app, preset, allocator,
   scale, dataset seed); [seed = None] is the app's default dataset. *)
type case = {
  app : string;
  cfg : string;
  alloc : Alloc.kind;
  scale : int;
  seed : int option;
}

let scenario c v =
  Scenario.make ~cfg:c.cfg ~alloc:c.alloc ~scale:c.scale ?seed:c.seed
    ~app:c.app v

let combos =
  List.concat_map (fun cfg -> List.map (fun alloc -> (cfg, alloc)) allocs)
    presets

let sweep_tiny_per_app = 28

(* Per app, [sweep_tiny_per_app] tiny cases cycling through every
   (preset, allocator) combination and every tiny scale level, plus one
   quarter-size case on the app's default dataset (the seven spread over
   the combinations): 203 cases, 1015 scenarios, since each case runs
   all five variants.  The quarter-size cases are about half of a pass's
   work, so the seed does not pick their datasets, and they sit in app
   order at evenly spaced positions among the shuffled tiny ones:
   neither the cost of a pass nor how far it has got after a given time
   hinges on the seed. *)
let sweep_cases seed =
  let rng = Rng.create seed in
  let tiny =
    List.concat_map
      (fun app ->
        List.init sweep_tiny_per_app (fun i ->
            let cfg, alloc = List.nth combos (i mod List.length combos) in
            { app; cfg; alloc; scale = tiny_scale app i;
              seed = Some (Rng.int_in rng 1 1_000_000) }))
      apps
  in
  let quarter =
    List.mapi
      (fun k app ->
        let cfg, alloc = List.nth combos (k * 4 mod List.length combos) in
        { app; cfg; alloc; scale = quarter_scale app; seed = None })
      apps
  in
  let tiny = Array.of_list tiny and quarter = Array.of_list quarter in
  Rng.shuffle rng tiny;
  let every = Array.length tiny / Array.length quarter in
  List.concat
    (List.mapi
       (fun i c ->
         if i mod every = 0 && i / every < Array.length quarter then
           [ quarter.(i / every); c ]
         else [ c ])
       (Array.to_list tiny))

let sweep seed =
  List.concat_map
    (fun c -> List.map (scenario c) H.all_variants)
    (sweep_cases seed)

let granularities = Dpc_kir.Pragma.[ Warp; Block; Grid ]

(* The serve workload's requests: every (app, allocator, granularity
   left out) combination once, 63 requests of one micro case each on the
   small milo832 core, under basic-dp, no-dp and the two remaining
   consolidation granularities.  Small, similar requests keep the
   daemon's service time light-tailed, so a 30 s window holds enough
   requests for a steady p99.  The requests do not depend on the seed;
   the seed picks the arrival times ({!arrivals}). *)
let serve_preset = "milo832"

let serve_requests () =
  List.concat_map
    (fun dropped ->
      List.concat_map
        (fun alloc ->
          List.map
            (fun app ->
              let c =
                { app; cfg = serve_preset; alloc; scale = micro_scale app;
                  seed = None }
              in
              List.map (scenario c)
                (H.Basic :: H.Flat
                :: List.filter_map
                     (fun g -> if g = dropped then None else Some (H.Cons g))
                     granularities))
            apps)
        allocs)
    granularities

(* Poisson arrivals at [rate] per second: due times (seconds from the
   start of the window) until [seconds]. *)
let arrivals ~rate ~seconds seed =
  let rng = Rng.create (seed lxor 0xa771) in
  let rec go t acc =
    let u = Rng.float rng in
    let t = t -. (Float.log (1.0 -. u) /. rate) in
    if t >= seconds then List.rev acc else go t (t :: acc)
  in
  Array.of_list (go 0.0 [])
