(* Output checks.  The apps verify each run against their CPU reference
   (raising [Verification_failed] on a mismatch); on top of that every
   pass of a workload must reproduce the first pass's simulated reports
   exactly. *)

module Scenario = Dpc_engine.Scenario
module Metrics = Dpc_sim.Metrics
module H = Dpc_apps.Harness
module Json = Dpc_prof.Json

type t = {
  mutable first : string option array option;
  mutable attempted : int;
  mutable failed : int;
}

let create () = { first = None; attempted = 0; failed = 0 }

let report_digest r =
  Digest.to_hex (Digest.string (Json.to_string (Metrics.to_json r)))

let of_result = function Ok r -> Some (report_digest r) | Error _ -> None

(* Record one pass: [ds.(i)] is item [i]'s report digest, [None] when the
   item failed.  An item also fails when its digest differs from the
   first pass's item at the same position (modulo the first pass's
   length: the serve workload cycles through its requests). *)
let pass t ds =
  let first =
    match t.first with
    | Some f -> f
    | None ->
      t.first <- Some ds;
      ds
  in
  let n = Array.length first in
  Array.iteri
    (fun i d ->
      t.attempted <- t.attempted + 1;
      if d = None || d <> first.(i mod n) then t.failed <- t.failed + 1)
    ds

let pass_results t results = pass t (Array.of_list (List.map of_result results))

(* Record a stream that cycles through [period] distinct items, into a
   fresh [t]: the first cycle is the first pass, and every later item is
   compared with its counterpart in the first cycle. *)
let cycled t ~period ds =
  let n = Int.min period (Array.length ds) in
  pass t (Array.sub ds 0 n);
  pass t (Array.sub ds n (Array.length ds - n))

(* The workload's digest: over the first pass's item digests. *)
let digest t =
  match t.first with
  | None -> "none"
  | Some ds ->
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (Array.to_list (Array.map (Option.value ~default:"x") ds))))

let verified_ratio t =
  Float.of_int (t.attempted - t.failed) /. Float.of_int (Int.max 1 t.attempted)

(* Geomean over cases of basic-dp cycles, and of no-dp cycles, over the
   best consolidated variant's cycles.  A case is a scenario modulo its
   variant; cases missing a variant are skipped. *)
let speedups (items : (Scenario.t * float) list) =
  let cases = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun ((sc : Scenario.t), cycles) ->
      let k = Scenario.key { sc with Scenario.variant = H.Basic } in
      if not (Hashtbl.mem cases k) then order := k :: !order;
      Hashtbl.add cases k (sc.Scenario.variant, cycles))
    items;
  let ratios =
    List.filter_map
      (fun k ->
        let vs = Hashtbl.find_all cases k in
        let cons = List.filter_map (function H.Cons _, c -> Some c | _ -> None) vs in
        match (List.assoc_opt H.Basic vs, List.assoc_opt H.Flat vs, cons) with
        | Some b, Some f, _ :: _ ->
          let best = List.fold_left Float.min infinity cons in
          Some (b /. best, f /. best)
        | _ -> None)
      (List.rev !order)
  in
  let g = Dpc_util.Stats.geomean in
  (g (List.map fst ratios), g (List.map snd ratios))
