(* Clocks, order statistics and process counters. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks; [p] in [0, 1]. *)
let quantile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let h = p *. Float.of_int (n - 1) in
    let lo = Float.to_int h in
    let hi = Int.min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. Float.of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

(* Peak resident set (VmHWM) in MiB, from /proc; [nan] elsewhere. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
            (fun kb -> Float.of_int kb /. 1024.0)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Allocation and collection counters, in millions of words. *)
type gc = { minor_mw : float; promoted_mw : float; majors : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_mw = s.Gc.minor_words /. 1e6;
    promoted_mw = s.Gc.promoted_words /. 1e6;
    majors = s.Gc.major_collections }

let gc_diff a b =
  { minor_mw = b.minor_mw -. a.minor_mw;
    promoted_mw = b.promoted_mw -. a.promoted_mw;
    majors = b.majors - a.majors }
