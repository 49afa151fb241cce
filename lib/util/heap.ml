(** Binary min-heap keyed by float priority, with a sequence number as a
    tie-breaker so equal-priority items pop in insertion order (the event
    queue of the timing simulator needs deterministic ordering).

    Every entry is its own handle: it records its slot in the array, so
    [update] and [remove] run in O(log n) without a search.  [update]
    draws a fresh sequence number from the same counter as [push], so an
    updated entry orders exactly as a freshly pushed duplicate would. *)

type 'a handle = {
  mutable prio : float;
  mutable seq : int;
  mutable pos : int;  (** slot in [data]; -1 once popped or removed *)
  v : 'a;
}

type 'a t = {
  mutable data : 'a handle array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { data = [||]; len = 0; next_seq = 0 }

let length t = t.len

let is_empty t = t.len = 0

let before a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let set t i e =
  t.data.(i) <- e;
  e.pos <- i

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let e = t.data.(i) and p = t.data.(parent) in
    if before e p then begin
      set t i p;
      set t parent e;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.len && before t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let e = t.data.(i) in
    set t i t.data.(!smallest);
    set t !smallest e;
    sift_down t !smallest
  end

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let push t prio v =
  let e = { prio; seq = fresh_seq t; pos = t.len; v } in
  if t.len = Array.length t.data then begin
    let cap = Int.max 16 (2 * t.len) in
    let data = Array.make cap e in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  set t t.len e;
  t.len <- t.len + 1;
  sift_up t (t.len - 1);
  e

(* Move the last entry into slot [i] and restore the order around it. *)
let fill_hole t i =
  t.len <- t.len - 1;
  if i < t.len then begin
    let e = t.data.(t.len) in
    set t i e;
    sift_up t i;
    sift_down t e.pos
  end

let update t e prio =
  if e.pos < 0 then invalid_arg "Heap.update: handle not in the heap";
  let old_prio = e.prio in
  e.prio <- prio;
  e.seq <- fresh_seq t;
  (* A larger seq only ever moves an entry down; a smaller prio may move
     it up. *)
  if prio < old_prio then sift_up t e.pos;
  sift_down t e.pos

let remove t e =
  if e.pos >= 0 then begin
    let i = e.pos in
    e.pos <- -1;
    fill_hole t i
  end

let pop_min t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    top.pos <- -1;
    fill_hole t 0;
    Some (top.prio, top.v)
  end

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i).v
  done

let peek_prio t = if t.len = 0 then None else Some t.data.(0).prio
