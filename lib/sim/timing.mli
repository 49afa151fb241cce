(** Discrete-event timing model.

    Replays the traces recorded by {!Interp} against the device's
    resources: SMX occupancy limits, per-SMX issue bandwidth, the
    32-concurrent-grid limit, the device-side launch pipeline with its
    fixed/virtualized pending pools, CTA startup cost, and parent-block
    swap on [cudaDeviceSynchronize].  Host launches replay sequentially
    (the drivers synchronize between kernels). *)

(** SMX scheduling discipline (DESIGN.md ablation A2):
    [Processor_sharing] (default) shares each SMX's issue bandwidth among
    resident blocks in proportion to their warp counts; [Fcfs] runs every
    block at its solo rate (no contention). *)
type scheduler = Processor_sharing | Fcfs

type result = {
  total_cycles : float;
  occupancy : float;
      (** achieved SMX occupancy: time-averaged resident warps per busy
          SMX over the warp capacity (the profiler's definition) *)
  extra_dram : int;  (** swap + virtualized-pool traffic *)
  virtualized_launches : int;
  max_pending : int;
  swapped_syncs : int;
}

type t

exception Stuck of string

(** [sink] receives one {!Dpc_prof.Event.t} per interesting state
    transition (grid lifecycle, SMX residency, sync swaps, pending-pool
    pressure, allocator replay), stamped with the simulated cycle.  The
    sink is per-model state: concurrent replays on separate domains with
    their own sinks record independent, deterministic streams. *)
val create :
  ?scheduler:scheduler ->
  ?record_timeline:bool ->
  ?sink:Dpc_prof.Event.sink ->
  Dpc_gpu.Config.t ->
  Trace.grid_exec array ->
  int list ->
  t

(** Run the replay to completion.
    @raise Stuck if any grid cannot complete (a model invariant
    violation). *)
val run : t -> result

(** Completion events popped by a replay so far.  [stale] counts those
    that no longer applied to their block; the queue keeps one event per
    block and deletes it when the block leaves its SMX, so it stays 0. *)
type stats = { seg_done : int; stale : int }

val stats : t -> stats

(** The largest number of [Seg_done] events any one block has queued at
    this moment (a scan of the queue, for tests). *)
val max_queued_per_block : t -> int

(** Resident-warp step samples (start_time, warps) in time order; empty
    unless the model was created with [record_timeline:true]. *)
val timeline : t -> (float * int) list

(** [simulate cfg grids roots] = [run (create cfg grids roots)]. *)
val simulate :
  ?scheduler:scheduler ->
  ?sink:Dpc_prof.Event.sink ->
  Dpc_gpu.Config.t ->
  Trace.grid_exec array ->
  int list ->
  result
