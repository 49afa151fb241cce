(* Unit tests of the discrete-event timing model, run on the deliberately
   tiny [Config.test_device] so concurrency and pool effects appear at
   small problem sizes. *)

open Dpc_kir.Build
module Cfg = Dpc_gpu.Config
module Device = Dpc_sim.Device
module M = Dpc_sim.Metrics
module V = Dpc_kir.Value
module Kernel = Dpc_kir.Kernel
module Timing = Dpc_sim.Timing

let mk_program kernels =
  let p = Kernel.Program.create () in
  List.iter (Kernel.Program.add p) kernels;
  p

(* A kernel doing a fixed amount of per-thread busy work. *)
let busy_kernel name iters =
  kernel ~name ~params:[ pi "out" ]
    [
      set "acc" (i 0);
      for_ "k" ~from:(i 0) ~below:(i iters) [ set "acc" (v "acc" +: v "k") ];
      store (v "out") (i 0) (v "acc");
    ]

let run_report ?(cfg = Cfg.test_device) kernels ~entry ~grid ~block =
  let dev = Device.create ~cfg (mk_program kernels) in
  let out = Device.alloc_int dev ~name:"out" 4 in
  Device.launch dev entry ~grid ~block [ V.Vbuf out.Dpc_gpu.Memory.id ];
  Device.report dev

let test_more_blocks_take_longer () =
  (* Enough per-block work that execution dominates the host launch
     latency included in the end-to-end cycle count. *)
  let r1 = run_report [ busy_kernel "b" 2000 ] ~entry:"b" ~grid:1 ~block:32 in
  (* 32 blocks on a 2-SMX device with 4 blocks/SMX: ~4 sequential waves. *)
  let r8 = run_report [ busy_kernel "b" 2000 ] ~entry:"b" ~grid:32 ~block:32 in
  Alcotest.(check bool) "more blocks, more cycles" true
    (r8.M.cycles > r1.M.cycles *. 1.5)

let test_occupancy_higher_with_more_warps () =
  let r1 = run_report [ busy_kernel "b" 500 ] ~entry:"b" ~grid:1 ~block:32 in
  let r4 = run_report [ busy_kernel "b" 500 ] ~entry:"b" ~grid:8 ~block:64 in
  Alcotest.(check bool) "occupancy grows" true
    (r4.M.occupancy > r1.M.occupancy)

(* Launch storms must overflow the tiny device's 16-entry fixed pool. *)
let test_pool_overflow_penalty () =
  let child = busy_kernel "child" 5 in
  let parent =
    kernel ~name:"parent" ~params:[ pi "out" ]
      [ launch "child" ~grid:(i 1) ~block:(i 32) [ v "out" ] ]
  in
  let r =
    run_report [ child; parent ] ~entry:"parent" ~grid:4 ~block:64
  in
  (* 4 blocks x 64 threads = 256 launches >> 16 pool entries *)
  Alcotest.(check int) "launch count" 256 r.M.device_launches;
  Alcotest.(check bool) "pool overflowed" true (r.M.max_pending > 16);
  Alcotest.(check bool) "virtualized launches recorded" true
    (r.M.virtualized_launches > 0)

let test_sync_swap_recorded () =
  let child = busy_kernel "child" 50 in
  let parent =
    kernel ~name:"parent" ~params:[ pi "out" ]
      [
        if_then (tid ==: i 0)
          [ launch "child" ~grid:(i 2) ~block:(i 32) [ v "out" ] ];
        device_sync;
        store (v "out") (i 1) (i 7);
      ]
  in
  let r = run_report [ child; parent ] ~entry:"parent" ~grid:1 ~block:32 in
  Alcotest.(check bool) "sync caused a swap" true (r.M.swapped_syncs >= 1)

let test_launch_latency_raises_total () =
  let child = busy_kernel "child" 5 in
  let parent =
    kernel ~name:"parent" ~params:[ pi "out" ]
      [
        if_then (tid ==: i 0)
          [ launch "child" ~grid:(i 1) ~block:(i 32) [ v "out" ] ];
      ]
  in
  let run lat =
    let cfg = { Cfg.test_device with Cfg.device_launch_latency = lat } in
    (run_report ~cfg [ child; parent ] ~entry:"parent" ~grid:1 ~block:32)
      .M.cycles
  in
  Alcotest.(check bool) "latency visible end-to-end" true
    (run 50_000 -. run 1_000 > 40_000.0)

let test_host_launches_serialize () =
  let k = busy_kernel "b" 50 in
  let dev = Device.create ~cfg:Cfg.test_device (mk_program [ k ]) in
  let out = Device.alloc_int dev ~name:"out" 4 in
  Device.launch dev "b" ~grid:1 ~block:32 [ V.Vbuf out.Dpc_gpu.Memory.id ];
  let one = (Device.report dev).M.cycles in
  Device.launch dev "b" ~grid:1 ~block:32 [ V.Vbuf out.Dpc_gpu.Memory.id ];
  let two = (Device.report dev).M.cycles in
  Alcotest.(check bool) "two launches take about twice as long" true
    (two > one *. 1.7)

let test_fcfs_not_slower_than_ps () =
  (* Without contention modeling every block runs at its solo rate, so the
     FCFS discipline can only speed things up. *)
  let mk sched =
    let dev =
      Device.create ~cfg:Cfg.test_device ~scheduler:sched
        (mk_program [ busy_kernel "b" 300 ])
    in
    let out = Device.alloc_int dev ~name:"out" 4 in
    Device.launch dev "b" ~grid:8 ~block:64 [ V.Vbuf out.Dpc_gpu.Memory.id ];
    (Device.report dev).M.cycles
  in
  Alcotest.(check bool) "fcfs <= ps" true
    (mk Dpc_sim.Timing.Fcfs <= mk Dpc_sim.Timing.Processor_sharing +. 1.0)

let test_report_deterministic () =
  let run () =
    (run_report [ busy_kernel "b" 100 ] ~entry:"b" ~grid:4 ~block:64).M.cycles
  in
  Alcotest.(check (float 0.0)) "same cycles both runs" (run ()) (run ())

(* --- deep memory-model features: Memmodel counting + Timing pricing --- *)

module Mm = Dpc_sim.Memmodel
module T = Dpc_sim.Trace

let deep_cfg =
  {
    Cfg.test_device with
    Cfg.shared_banks = 32;
    bank_replay_cycles = 2;
    mshr_per_warp = 8;
    mshr_retire_per_access = 1;
    mshr_stall_cycles = 4;
  }

let test_memmodel_bank_replays () =
  let mm = Mm.create deep_cfg in
  let seg = T.seg_builder () in
  let idx f = Array.init 32 f in
  let count a =
    let before = seg.T.bank_rp in
    Mm.account_shared mm ~seg a 32;
    seg.T.bank_rp - before
  in
  Alcotest.(check int) "unit stride is conflict-free" 0
    (count (idx (fun l -> l)));
  Alcotest.(check int) "one word broadcasts for free" 0
    (count (idx (fun _ -> 7)));
  Alcotest.(check int) "stride two: two words per bank, one replay" 1
    (count (idx (fun l -> 2 * l)));
  Alcotest.(check int) "stride 32: all lanes on one bank" 31
    (count (idx (fun l -> 32 * l)));
  (* Two distinct words 64 apart share one dedup scratch slot; the
     linear fallback must still see two words on bank zero (one
     replay), not collapse them into a broadcast. *)
  Alcotest.(check int) "slot-colliding words stay distinct" 1
    (count (idx (fun l -> if l < 16 then 0 else 64)))

let test_memmodel_mshr_stalls () =
  let mm = Mm.create deep_cfg in
  Mm.block_start mm;
  let seg = T.seg_builder () in
  (* 32 lanes touch 32 distinct cold segments: 32 misses against the
     8-entry budget leave 24 transactions past it. *)
  let addrs = Array.init 32 (fun l -> l * 128) in
  Mm.account_access mm ~seg ~warp:0 addrs 32;
  Alcotest.(check int) "misses counted" 32 seg.T.dram;
  Alcotest.(check int) "stalls past the budget" 24 seg.T.mshr_st;
  (* The same segments now hit in L2: no new misses, and the occupancy
     drains instead of stalling again. *)
  Mm.account_access mm ~seg ~warp:0 addrs 32;
  Alcotest.(check int) "hits add no stalls" 24 seg.T.mshr_st;
  Alcotest.(check int) "hits served by L2" 32 seg.T.l2;
  (* A fresh block resets per-warp occupancy. *)
  Mm.block_start mm;
  let seg2 = T.seg_builder () in
  Mm.account_access mm ~seg:seg2 ~warp:0 [| 0 |] 1;
  Alcotest.(check int) "block reset: one hit, no stall" 0 seg2.T.mshr_st

let test_dual_issue_speedup () =
  (* One block of two warps on a 4-slot SMX: single-issue caps the block
     at 2 instructions/cycle, dual-issue at 4. *)
  let run ipw =
    let cfg = { Cfg.test_device with Cfg.issue_per_warp = ipw } in
    (run_report ~cfg [ busy_kernel "b" 2000 ] ~entry:"b" ~grid:1 ~block:64)
      .M.cycles
  in
  let single = run 1 and dual = run 2 in
  Alcotest.(check bool) "dual-issue is materially faster" true
    (dual < single *. 0.8)

let test_bank_replays_charged () =
  let k =
    kernel ~name:"b" ~params:[ pi "out" ] ~shared:[ ("s", 64) ]
      [
        shared_set "s" (tid *: i 2 %: i 64) tid;
        sync;
        store (v "out") (i 0) (shared "s" (i 0));
      ]
  in
  let run banks =
    let cfg =
      {
        Cfg.test_device with
        Cfg.shared_banks = banks;
        bank_replay_cycles = 64;
      }
    in
    run_report ~cfg [ k ] ~entry:"b" ~grid:1 ~block:32
  in
  let off = run 0 and on_ = run 32 in
  Alcotest.(check int) "no replays with banks unmodeled" 0
    off.M.bank_conflict_replays;
  Alcotest.(check bool) "stride-two store replays" true
    (on_.M.bank_conflict_replays > 0);
  Alcotest.(check bool) "replays cost cycles" true
    (on_.M.cycles > off.M.cycles)

let test_mshr_stalls_charged () =
  let k =
    kernel ~name:"b"
      ~params:[ pi "d"; pi "out" ]
      [
        set "x" (load (v "d") (tid *: i 64));
        store (v "out") (i 0) (v "x");
      ]
  in
  let run mshr =
    let cfg =
      {
        Cfg.test_device with
        Cfg.mshr_per_warp = mshr;
        mshr_retire_per_access = 1;
        mshr_stall_cycles = 100;
      }
    in
    let dev = Device.create ~cfg (mk_program [ k ]) in
    let d = Device.alloc_int dev ~name:"d" 2048 in
    let out = Device.alloc_int dev ~name:"out" 4 in
    Device.launch dev "b" ~grid:1 ~block:32
      [ V.Vbuf d.Dpc_gpu.Memory.id; V.Vbuf out.Dpc_gpu.Memory.id ];
    Device.report dev
  in
  let off = run 0 and on_ = run 8 in
  Alcotest.(check int) "no stalls with MSHRs unmodeled" 0 off.M.mshr_stalls;
  Alcotest.(check bool) "scatter past the budget stalls" true
    (on_.M.mshr_stalls > 0);
  Alcotest.(check bool) "stalls cost cycles" true
    (on_.M.cycles > off.M.cycles)

(* The replay keeps one completion event per block and re-prioritises it
   when rates change, so nothing stale is ever popped.  On TH no-dp (the
   replay that used to pop 224,280 stale events for 8,204 segments) every
   segment now costs exactly one event, and the cycle count is the one
   the report computed. *)
let test_no_stale_events () =
  let th = Dpc_apps.Registry.find "TH" in
  let captured = ref None in
  let report =
    th.Dpc_apps.Registry.run
      ~inspect:(fun dev -> captured := Some dev)
      Dpc_apps.Harness.Flat
  in
  let dev = Option.get !captured in
  let s = Device.session dev in
  let grids = Dpc_sim.Interp.grids s in
  let model = ref None and worst = ref 0 in
  let sink _ =
    Option.iter
      (fun t -> worst := Int.max !worst (Timing.max_queued_per_block t))
      !model
  in
  let t =
    Timing.create ~sink (Device.config dev) grids (Dpc_sim.Interp.roots s)
  in
  model := Some t;
  let r = Timing.run t in
  let segments =
    Array.fold_left
      (fun acc (g : Dpc_sim.Trace.grid_exec) ->
        Array.fold_left
          (fun acc (b : Dpc_sim.Trace.block_trace) ->
            acc + Array.length b.Dpc_sim.Trace.segments)
          acc g.Dpc_sim.Trace.blocks)
      0 grids
  in
  let st = Timing.stats t in
  Alcotest.(check (float 0.0)) "same cycles as the report" report.M.cycles
    r.Timing.total_cycles;
  Alcotest.(check int) "at most one queued Seg_done per block" 1 !worst;
  Alcotest.(check int) "no stale events" 0 st.Timing.stale;
  Alcotest.(check int) "one completion event per segment" segments
    st.Timing.seg_done

let suite =
  [
    Alcotest.test_case "blocks serialize" `Quick test_more_blocks_take_longer;
    Alcotest.test_case "no stale events" `Quick test_no_stale_events;
    Alcotest.test_case "occupancy grows with warps" `Quick
      test_occupancy_higher_with_more_warps;
    Alcotest.test_case "pool overflow" `Quick test_pool_overflow_penalty;
    Alcotest.test_case "sync swap" `Quick test_sync_swap_recorded;
    Alcotest.test_case "launch latency" `Quick test_launch_latency_raises_total;
    Alcotest.test_case "host launches serialize" `Quick
      test_host_launches_serialize;
    Alcotest.test_case "fcfs vs ps" `Quick test_fcfs_not_slower_than_ps;
    Alcotest.test_case "deterministic" `Quick test_report_deterministic;
    Alcotest.test_case "memmodel bank replays" `Quick
      test_memmodel_bank_replays;
    Alcotest.test_case "memmodel mshr stalls" `Quick
      test_memmodel_mshr_stalls;
    Alcotest.test_case "dual issue" `Quick test_dual_issue_speedup;
    Alcotest.test_case "bank replays charged" `Quick
      test_bank_replays_charged;
    Alcotest.test_case "mshr stalls charged" `Quick test_mshr_stalls_charged;
  ]

let test_timeline_renders () =
  let dev =
    Device.create ~cfg:Cfg.test_device (mk_program [ busy_kernel "b" 200 ])
  in
  let out = Device.alloc_int dev ~name:"out" 4 in
  Device.launch dev "b" ~grid:4 ~block:32 [ V.Vbuf out.Dpc_gpu.Memory.id ];
  ignore (Device.report dev);
  let chart =
    Dpc_sim.Timeline.of_session ~width:40 ~height:4 (Device.session dev)
  in
  let lines = String.split_on_char '\n' chart in
  (* 4 rows + axis + caption *)
  Alcotest.(check bool) "has rows" true (List.length lines >= 6);
  Alcotest.(check bool) "shows some utilization" true
    (String.exists (fun c -> c = '#' || c = '@' || c = '=') chart)

let test_timeline_bucketize_conserves_mass () =
  (* Time-weighted warp mass is preserved by bucketing. *)
  let samples = [ (0.0, 10); (50.0, 20); (75.0, 0) ] in
  let total = 100.0 in
  let buckets = Dpc_sim.Timeline.bucketize ~width:10 ~total samples in
  let mass = Array.fold_left ( +. ) 0.0 buckets *. (total /. 10.0) in
  (* 10 warps * 50 cycles + 20 * 25 + 0 * 25 = 1000 *)
  Alcotest.(check (float 1e-6)) "mass" 1000.0 mass

let suite =
  suite
  @ [
      Alcotest.test_case "timeline renders" `Quick test_timeline_renders;
      Alcotest.test_case "timeline mass" `Quick
        test_timeline_bucketize_conserves_mass;
    ]
