(* End-to-end tests of the SIMT interpreter and timing model on small
   hand-built kernels. *)

open Dpc_kir
open Dpc_kir.Build
module Device = Dpc_sim.Device
module Interp = Dpc_sim.Interp
module V = Dpc_kir.Value

let mk_program kernels =
  let p = Kernel.Program.create () in
  List.iter (Kernel.Program.add p) kernels;
  p

let launch_args (bufs : Dpc_gpu.Memory.buf list) (ints : int list) =
  List.map (fun (b : Dpc_gpu.Memory.buf) -> V.Vbuf b.Dpc_gpu.Memory.id) bufs
  @ List.map (fun i -> V.Vint i) ints

(* --- vector add ----------------------------------------------------------- *)

let vec_add_kernel =
  kernel ~name:"vec_add"
    ~params:[ pi "a"; pi "b"; pi "c"; p "n" ]
    [
      set "i" gtid;
      if_then (v "i" <: v "n")
        [ store (v "c") (v "i") (load (v "a") (v "i") +: load (v "b") (v "i")) ];
    ]

let test_vec_add () =
  let dev = Device.create (mk_program [ vec_add_kernel ]) in
  let n = 1000 in
  let a = Device.of_int_array dev ~name:"a" (Array.init n Fun.id) in
  let b = Device.of_int_array dev ~name:"b" (Array.init n (fun i -> 2 * i)) in
  let c = Device.alloc_int dev ~name:"c" n in
  Device.launch dev "vec_add" ~grid:8 ~block:128
    (launch_args [ a; b; c ] [ n ]);
  let got = Device.read_int_array dev c.Dpc_gpu.Memory.id in
  Alcotest.(check (array int)) "c = a + b" (Array.init n (fun i -> 3 * i)) got

let test_vec_add_report () =
  let dev = Device.create (mk_program [ vec_add_kernel ]) in
  let n = 1000 in
  let a = Device.of_int_array dev ~name:"a" (Array.make n 1) in
  let b = Device.of_int_array dev ~name:"b" (Array.make n 1) in
  let c = Device.alloc_int dev ~name:"c" n in
  Device.launch dev "vec_add" ~grid:8 ~block:128
    (launch_args [ a; b; c ] [ n ]);
  let r = Device.report dev in
  Alcotest.(check int) "one host launch" 1 r.Dpc_sim.Metrics.host_launches;
  Alcotest.(check int) "no device launches" 0
    r.Dpc_sim.Metrics.device_launches;
  Alcotest.(check bool) "positive cycles" true (r.Dpc_sim.Metrics.cycles > 0.0);
  Alcotest.(check bool) "high warp efficiency" true
    (r.Dpc_sim.Metrics.warp_efficiency > 0.9)

(* --- divergence ------------------------------------------------------------ *)

(* Half the lanes take a long path: warp efficiency must drop. *)
let divergent_kernel =
  kernel ~name:"divergent"
    ~params:[ pi "out"; p "n" ]
    [
      set "i" gtid;
      if_then (v "i" <: v "n")
        [
          if_ (v "i" %: i 2 ==: i 0)
            [
              set "acc" (i 0);
              for_ "k" ~from:(i 0) ~below:(i 100)
                [ set "acc" (v "acc" +: v "k") ];
              store (v "out") (v "i") (v "acc");
            ]
            [ store (v "out") (v "i") (i (-1)) ];
        ];
    ]

let test_divergence_efficiency () =
  let dev = Device.create (mk_program [ divergent_kernel ]) in
  let n = 512 in
  let out = Device.alloc_int dev ~name:"out" n in
  Device.launch dev "divergent" ~grid:4 ~block:128
    (launch_args [ out ] [ n ]);
  let got = Device.read_int_array dev out.Dpc_gpu.Memory.id in
  Alcotest.(check int) "even lane" 4950 got.(0);
  Alcotest.(check int) "odd lane" (-1) got.(1);
  let r = Device.report dev in
  Alcotest.(check bool) "warp efficiency degraded" true
    (r.Dpc_sim.Metrics.warp_efficiency < 0.75)

(* --- shared memory + syncthreads ------------------------------------------- *)

let reverse_kernel =
  kernel ~name:"reverse_block" ~params:[ pi "data" ]
    ~shared:[ ("tmp", 128) ]
    [
      shared_set "tmp" tid (load (v "data") (bid *: bdim +: tid));
      sync;
      store (v "data")
        (bid *: bdim +: tid)
        (shared "tmp" (bdim -: i 1 -: tid));
    ]

let test_shared_reverse () =
  let dev = Device.create (mk_program [ reverse_kernel ]) in
  let n = 256 in
  let data = Device.of_int_array dev ~name:"d" (Array.init n Fun.id) in
  Device.launch dev "reverse_block" ~grid:2 ~block:128
    (launch_args [ data ] []);
  let got = Device.read_int_array dev data.Dpc_gpu.Memory.id in
  let expect =
    Array.init n (fun i ->
        let blk = i / 128 and off = i mod 128 in
        (blk * 128) + (127 - off))
  in
  Alcotest.(check (array int)) "block-reversed" expect got

(* --- atomics ---------------------------------------------------------------- *)

let atomic_sum_kernel =
  kernel ~name:"atomic_sum"
    ~params:[ pi "src"; pi "total"; p "n" ]
    [
      set "i" gtid;
      if_then (v "i" <: v "n")
        [ atomic_add (v "total") (i 0) (load (v "src") (v "i")) ];
    ]

let test_atomic_sum () =
  let dev = Device.create (mk_program [ atomic_sum_kernel ]) in
  let n = 777 in
  let src = Device.of_int_array dev ~name:"src" (Array.init n Fun.id) in
  let total = Device.alloc_int dev ~name:"total" 1 in
  Device.launch dev "atomic_sum" ~grid:7 ~block:128
    (launch_args [ src; total ] [ n ]);
  let got = (Device.read_int_array dev total.Dpc_gpu.Memory.id).(0) in
  Alcotest.(check int) "sum" (n * (n - 1) / 2) got

let test_atomic_old_binding () =
  let k =
    kernel ~name:"ticket" ~params:[ pi "ctr"; pi "out" ]
      [
        atomic_add ~old:"mine" (v "ctr") (i 0) (i 1);
        store (v "out") gtid (v "mine");
      ]
  in
  let dev = Device.create (mk_program [ k ]) in
  let ctr = Device.alloc_int dev ~name:"ctr" 1 in
  let out = Device.alloc_int dev ~name:"out" 64 in
  Device.launch dev "ticket" ~grid:1 ~block:64 (launch_args [ ctr; out ] []);
  let got = Device.read_int_array dev out.Dpc_gpu.Memory.id in
  Array.sort compare got;
  Alcotest.(check (array int)) "tickets unique 0..63"
    (Array.init 64 Fun.id) got

(* --- dynamic parallelism ----------------------------------------------------- *)

let child_kernel =
  kernel ~name:"child"
    ~params:[ pi "out"; p "base"; p "count" ]
    [
      set "i" gtid;
      if_then (v "i" <: v "count") [ store (v "out") (v "base" +: v "i") (i 7) ];
    ]

let parent_kernel =
  kernel ~name:"parent"
    ~params:[ pi "out"; p "per" ]
    [
      set "i" gtid;
      launch "child"
        ~grid:(i 1) ~block:(i 32)
        [ v "out"; v "i" *: v "per"; v "per" ];
    ]

let test_nested_launch () =
  let dev = Device.create (mk_program [ child_kernel; parent_kernel ]) in
  let per = 8 in
  let out = Device.alloc_int dev ~name:"out" (64 * per) in
  Device.launch dev "parent" ~grid:2 ~block:32 (launch_args [ out ] [ per ]);
  let got = Device.read_int_array dev out.Dpc_gpu.Memory.id in
  Alcotest.(check (array int)) "all cells written"
    (Array.make (64 * per) 7) got;
  let r = Device.report dev in
  Alcotest.(check int) "64 device launches" 64
    r.Dpc_sim.Metrics.device_launches;
  Alcotest.(check int) "max depth 1" 1 r.Dpc_sim.Metrics.max_depth

let test_device_sync_postwork () =
  (* Parent writes after device sync must observe child writes. *)
  let child =
    kernel ~name:"c2" ~params:[ pi "data" ]
      [ store (v "data") tid (i 5) ]
  in
  let parent =
    kernel ~name:"p2" ~params:[ pi "data"; pi "out" ]
      [
        if_then (tid ==: i 0)
          [ launch "c2" ~grid:(i 1) ~block:(i 32) [ v "data" ] ];
        device_sync;
        if_then (tid ==: i 0)
          [
            set "acc" (i 0);
            for_ "k" ~from:(i 0) ~below:(i 32)
              [ set "acc" (v "acc" +: load (v "data") (v "k")) ];
            store (v "out") (i 0) (v "acc");
          ];
      ]
  in
  let dev = Device.create (mk_program [ child; parent ]) in
  let data = Device.alloc_int dev ~name:"data" 32 in
  let out = Device.alloc_int dev ~name:"out" 1 in
  Device.launch dev "p2" ~grid:1 ~block:32 (launch_args [ data; out ] []);
  Alcotest.(check int) "postwork sees child writes" 160
    (Device.read_int_array dev out.Dpc_gpu.Memory.id).(0)

(* --- recursion ---------------------------------------------------------------- *)

let countdown_kernel =
  kernel ~name:"countdown"
    ~params:[ pi "log"; p "depth" ]
    [
      if_then (tid ==: i 0)
        [
          atomic_add (v "log") (i 0) (i 1);
          if_then (v "depth" >: i 0)
            [
              launch "countdown" ~grid:(i 1) ~block:(i 32)
                [ v "log"; v "depth" -: i 1 ];
            ];
        ];
    ]

let test_recursion_depth () =
  let dev = Device.create (mk_program [ countdown_kernel ]) in
  let log = Device.alloc_int dev ~name:"log" 1 in
  Device.launch dev "countdown" ~grid:1 ~block:32 (launch_args [ log ] [ 5 ]);
  Alcotest.(check int) "6 invocations" 6
    (Device.read_int_array dev log.Dpc_gpu.Memory.id).(0);
  let r = Device.report dev in
  Alcotest.(check int) "depth 5" 5 r.Dpc_sim.Metrics.max_depth

let test_nesting_limit () =
  let dev = Device.create (mk_program [ countdown_kernel ]) in
  let log = Device.alloc_int dev ~name:"log" 1 in
  Alcotest.check_raises "exceeds nesting limit"
    (Interp.Sim_error
       "launch of countdown exceeds max nesting depth 24") (fun () ->
      Device.launch dev "countdown" ~grid:1 ~block:32 (launch_args [ log ] [ 30 ]))

(* --- grid barrier --------------------------------------------------------------- *)

let barrier_kernel =
  kernel ~name:"barrier_k"
    ~params:[ pi "data"; pi "out" ]
    [
      store (v "data") bid (bid +: i 1);
      grid_barrier;
      (* Only the last block runs this. *)
      if_then (tid ==: i 0)
        [
          set "acc" (i 0);
          for_ "k" ~from:(i 0) ~below:gdim
            [ set "acc" (v "acc" +: load (v "data") (v "k")) ];
          store (v "out") (i 0) (v "acc");
        ];
    ]

let test_grid_barrier () =
  let dev = Device.create (mk_program [ barrier_kernel ]) in
  let g = 10 in
  let data = Device.alloc_int dev ~name:"data" g in
  let out = Device.alloc_int dev ~name:"out" 1 in
  Device.launch dev "barrier_k" ~grid:g ~block:32
    (launch_args [ data; out ] []);
  Alcotest.(check int) "sum over blocks" (g * (g + 1) / 2)
    (Device.read_int_array dev out.Dpc_gpu.Memory.id).(0)

(* --- malloc scopes ---------------------------------------------------------------- *)

let test_malloc_per_block () =
  (* Each block gets its own buffer; lanes see the same one. *)
  let k =
    kernel ~name:"mb" ~params:[ pi "out" ]
      [
        malloc ~scope:Ast.Per_block "buf" (i 64);
        store (v "buf") tid (bid *: i 1000 +: tid);
        store (v "out") (bid *: bdim +: tid) (load (v "buf") tid);
      ]
  in
  let dev = Device.create (mk_program [ k ]) in
  let out = Device.alloc_int dev ~name:"out" 128 in
  Device.launch dev "mb" ~grid:2 ~block:64 (launch_args [ out ] []);
  let got = Device.read_int_array dev out.Dpc_gpu.Memory.id in
  let expect = Array.init 128 (fun i -> (i / 64 * 1000) + (i mod 64)) in
  Alcotest.(check (array int)) "per-block buffers isolated" expect got

let test_malloc_per_grid_shared () =
  (* All blocks share one grid-scope buffer. *)
  let k =
    kernel ~name:"mg" ~params:[ pi "out" ]
      [
        malloc ~scope:Ast.Per_grid "buf" (i 4);
        if_then (tid ==: i 0) [ atomic_add (v "buf") (i 0) (i 1) ];
        grid_barrier;
        if_then (tid ==: i 0) [ store (v "out") (i 0) (load (v "buf") (i 0)) ];
      ]
  in
  let dev = Device.create (mk_program [ k ]) in
  let out = Device.alloc_int dev ~name:"out" 1 in
  Device.launch dev "mg" ~grid:6 ~block:32 (launch_args [ out ] []);
  Alcotest.(check int) "6 increments on one buffer" 6
    (Device.read_int_array dev out.Dpc_gpu.Memory.id).(0)

(* --- error cases --------------------------------------------------------------------- *)

let test_out_of_bounds () =
  let k =
    kernel ~name:"oob" ~params:[ pi "a" ] [ store (v "a") (i 99) (i 1) ]
  in
  let dev = Device.create (mk_program [ k ]) in
  let a = Device.alloc_int dev ~name:"a" 4 in
  Alcotest.(check bool) "raises out of bounds" true
    (try
       Device.launch dev "oob" ~grid:1 ~block:1 (launch_args [ a ] []);
       false
     with Dpc_gpu.Memory.Out_of_bounds _ -> true)

let test_divergent_syncthreads_rejected () =
  let k =
    kernel ~name:"bad_sync" ~params:[ pi "a" ]
      [ if_ (tid <: i 16) [ sync ] [ store (v "a") (i 0) (i 1) ] ]
  in
  let dev = Device.create (mk_program [ k ]) in
  let a = Device.alloc_int dev ~name:"a" 4 in
  Alcotest.(check bool) "raises on divergent barrier" true
    (try
       Device.launch dev "bad_sync" ~grid:1 ~block:32 (launch_args [ a ] []);
       false
     with Interp.Sim_error _ -> true)

(* --- tier default and charge accounting ------------------------------------ *)

let test_default_tier () =
  let expect =
    match Sys.getenv_opt "DPC_INTERP" with
    | None -> Interp.Bytecode
    | Some s -> Option.get (Interp.mode_of_string s)
  in
  Alcotest.(check string) "session-default tier"
    (Interp.mode_to_string expect)
    (Interp.mode_to_string (Interp.default_mode ()))

(* [weighted_active] is accumulated as integer lane-cycles and divided by
   32 once per segment; it must equal the per-charge float sum exactly. *)
let prop_weighted_active_exact =
  QCheck.Test.make ~count:200 ~name:"weighted_active equals the float sum"
    QCheck.(list (pair (int_range 1 5000) (int_range 0 32)))
    (fun charges ->
      let seg = Dpc_sim.Trace.seg_builder () in
      let float_sum =
        List.fold_left
          (fun acc (cycles, active) ->
            Dpc_sim.Runtime.charge seg cycles active;
            acc +. (Float.of_int (cycles * active) /. 32.0))
          0.0 charges
      in
      let bt = Dpc_sim.Trace.finish seg ~block_idx:0 ~warps:1 in
      bt.Dpc_sim.Trace.segments.(0).Dpc_sim.Trace.weighted_active = float_sum)

let suite =
  [
    Alcotest.test_case "default tier" `Quick test_default_tier;
    QCheck_alcotest.to_alcotest prop_weighted_active_exact;
    Alcotest.test_case "vec add result" `Quick test_vec_add;
    Alcotest.test_case "vec add report" `Quick test_vec_add_report;
    Alcotest.test_case "divergence efficiency" `Quick test_divergence_efficiency;
    Alcotest.test_case "shared memory reverse" `Quick test_shared_reverse;
    Alcotest.test_case "atomic sum" `Quick test_atomic_sum;
    Alcotest.test_case "atomic old binding" `Quick test_atomic_old_binding;
    Alcotest.test_case "nested launch" `Quick test_nested_launch;
    Alcotest.test_case "device sync postwork" `Quick test_device_sync_postwork;
    Alcotest.test_case "recursion depth" `Quick test_recursion_depth;
    Alcotest.test_case "nesting limit" `Quick test_nesting_limit;
    Alcotest.test_case "grid barrier" `Quick test_grid_barrier;
    Alcotest.test_case "malloc per block" `Quick test_malloc_per_block;
    Alcotest.test_case "malloc per grid" `Quick test_malloc_per_grid_shared;
    Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
    Alcotest.test_case "divergent syncthreads" `Quick
      test_divergent_syncthreads_rejected;
  ]
