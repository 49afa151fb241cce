(* Tests of the benchmark itself: seeded inputs, workload coverage,
   output digests and the span tree. *)

open Perfbench
module Scenario = Dpc_engine.Scenario
module Session = Dpc_engine.Session
module H = Dpc_apps.Harness

let keys scs = List.map Scenario.key scs

let test_same_seed () =
  Alcotest.(check (list string)) "sweep" (keys (Inputs.sweep 7)) (keys (Inputs.sweep 7));
  Alcotest.(check (array (float 0.0))) "serve arrivals"
    (Inputs.arrivals ~rate:50.0 ~seconds:2.0 7)
    (Inputs.arrivals ~rate:50.0 ~seconds:2.0 7);
  Alcotest.(check bool) "another seed, another sweep" false
    (keys (Inputs.sweep 7) = keys (Inputs.sweep 8));
  Alcotest.(check bool) "another seed, other arrivals" false
    (Inputs.arrivals ~rate:50.0 ~seconds:2.0 7 = Inputs.arrivals ~rate:50.0 ~seconds:2.0 8)

let test_sweep_coverage () =
  let scs = Inputs.sweep 3 in
  Alcotest.(check bool) "at least 1000 scenarios" true (List.length scs >= 1000);
  let covers what all get =
    List.iter
      (fun x ->
        if not (List.exists (fun sc -> get sc = x) scs) then
          Alcotest.failf "sweep misses %s %s" what x)
      all
  in
  covers "preset" Inputs.presets (fun sc -> sc.Scenario.cfg_preset);
  covers "allocator"
    (List.map Scenario.alloc_to_string Inputs.allocs)
    (fun sc -> Scenario.alloc_to_string sc.Scenario.alloc);
  covers "variant"
    (List.map H.variant_to_string H.all_variants)
    (fun sc -> H.variant_to_string sc.Scenario.variant);
  covers "app" Inputs.apps (fun sc -> sc.Scenario.app)

let test_serve_requests () =
  List.iter
    (fun scs ->
      Alcotest.(check int) "four scenarios" 4 (List.length scs);
      let has v = List.exists (fun sc -> sc.Scenario.variant = v) scs in
      Alcotest.(check bool) "basic-dp and no-dp" true (has H.Basic && has H.Flat))
    (Inputs.serve_requests ())

(* The first case of a sweep: five tiny scenarios. *)
let small_batch () = List.filteri (fun i _ -> i < 5) (Inputs.sweep 11)

let test_digest_stable () =
  let scs = small_batch () in
  let check = Check.create () in
  let pass () =
    Check.pass_results check
      (List.map (fun (o : Session.outcome) -> o.result)
         (Session.run_all (Session.create ~jobs:2 ()) scs))
  in
  pass ();
  let d1 = Check.digest check in
  pass ();
  Alcotest.(check string) "digest" d1 (Check.digest check);
  Alcotest.(check int) "attempted" 10 check.attempted;
  Alcotest.(check int) "failed" 0 check.failed

let test_digest_mismatch_fails () =
  let check = Check.create () in
  Check.pass check [| Some "a"; Some "b" |];
  Check.pass check [| Some "a"; Some "c" |];
  Check.pass check [| None; Some "b" |];
  Alcotest.(check int) "failed" 2 check.failed

(* A serve window cycles through its distinct requests: a changed
   report in a later cycle fails against the first cycle. *)
let test_cycled_mismatch_fails () =
  let check = Check.create () in
  Check.cycled check ~period:2 [| Some "a"; Some "b"; Some "a"; Some "b"; Some "a"; Some "c" |];
  Alcotest.(check int) "attempted" 6 check.attempted;
  Alcotest.(check int) "failed" 1 check.failed

let test_spans_nested () =
  let spans = Spans.create () in
  let p = Traced.pass spans ~jobs:2 (small_batch ()) in
  let all = Spans.all spans in
  Alcotest.(check (list string)) "no nesting errors" [] (Spans.nesting_errors all);
  List.iter
    (fun (r : Traced.run) ->
      match r.result with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" (Scenario.label r.sc) (Printexc.to_string e))
    p.runs;
  let names = List.sort_uniq compare (List.map (fun s -> s.Spans.name) all) in
  List.iter
    (fun n ->
      if not (List.mem n names) then Alcotest.failf "no %s span" n)
    [ "pass"; "scenario"; "graph"; "engine"; "prep"; "sim"; "timing" ]

let test_nesting_errors_found () =
  let spans = Spans.create () in
  let p = Spans.add spans ~parent:Spans.root "parent" 1.0 2.0 in
  ignore (Spans.add spans ~parent:p "inside" 1.2 1.8);
  ignore (Spans.add spans ~parent:p "outside" 1.5 2.5);
  Alcotest.(check int) "one error" 1 (List.length (Spans.nesting_errors (Spans.all spans)));
  let self = Spans.self_times (Spans.all spans) in
  Alcotest.(check (float 1e-9)) "parent self time" 0.2 (Spans.self_time self "parent")

let () =
  Alcotest.run "perfbench"
    [ ( "inputs",
        [ Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "sweep coverage" `Quick test_sweep_coverage;
          Alcotest.test_case "serve requests" `Quick test_serve_requests ] );
      ( "check",
        [ Alcotest.test_case "digest stable across passes" `Quick test_digest_stable;
          Alcotest.test_case "digest mismatch fails" `Quick test_digest_mismatch_fails;
          Alcotest.test_case "later cycle mismatch fails" `Quick test_cycled_mismatch_fails ] );
      ( "spans",
        [ Alcotest.test_case "traced pass is well nested" `Quick test_spans_nested;
          Alcotest.test_case "nesting errors found" `Quick test_nesting_errors_found ] ) ]
