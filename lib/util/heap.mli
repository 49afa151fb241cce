(** Binary min-heap keyed by float priority.

    Equal-priority items pop in insertion order (a sequence number breaks
    ties), which keeps the timing simulator's event processing
    deterministic.  [push] returns a handle through which the entry can
    later be re-prioritised or removed in O(log n). *)

type 'a t

(** A queued entry.  It stays valid until the entry is popped or
    removed. *)
type 'a handle

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> 'a -> 'a handle

(** [update t h prio] gives [h] priority [prio] and a fresh sequence
    number from the counter [push] uses, so [h] then orders exactly as a
    new [push t prio v] would.
    @raise Invalid_argument if [h] was popped or removed. *)
val update : 'a t -> 'a handle -> float -> unit

(** Drop the entry; a no-op if it was already popped or removed. *)
val remove : 'a t -> 'a handle -> unit

(** Smallest priority first; [None] when empty. *)
val pop_min : 'a t -> (float * 'a) option

(** Priority of the next element to pop, without popping. *)
val peek_prio : 'a t -> float option

(** Apply [f] to every queued value, in no particular order. *)
val iter : ('a -> unit) -> 'a t -> unit
