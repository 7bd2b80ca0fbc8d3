(** Conservative epoch-barrier driver for parallel discrete-event
    simulation inside {e one} scenario (OCaml 5 domains).

    The caller splits the simulated world into partitions, each owning
    a private event heap, such that every cross-partition interaction
    carries at least [lookahead] time units of latency.  [run] then
    advances all partitions through half-open windows
    [\[t, t + lookahead)] concurrently — events inside one window
    cannot influence another partition's same window — and barriers at
    each boundary, where the main domain alone runs [exchange] to move
    the window's cross-partition messages into their destinations in a
    canonical order.

    Determinism contract (same as {!Pool.map}, extended to the inside of a
    scenario): the final state is a pure function of the world and
    [lookahead]/[until]; byte-identical for any [jobs] value.  See
    DESIGN.md "Conservative parallel DES".

    Times are plain [int]s (this library depends on nothing); callers
    pass [Engine.Time.t] values through unchanged. *)

type part = {
  advance : int -> unit;
      (** [advance limit] runs every pending event with time strictly
          below [limit] and leaves the partition clock at [limit]
          (e.g. [Engine.Sim.run_before]). *)
  finish : int -> unit;
      (** [finish until] runs the events at exactly [until] — the
          final, inclusive window (e.g. [Engine.Sim.run ~until]). *)
  next_time : unit -> int option;
      (** Earliest pending event time, [None] when idle.  Lower bounds
          (cancelled slots) are fine; they only cost extra windows. *)
}

val run :
  ?jobs:int ->
  lookahead:int ->
  until:int ->
  exchange:(unit -> unit) ->
  part array ->
  unit
(** [run ~jobs ~lookahead ~until ~exchange parts] drives all
    partitions from time 0 to [until] in lookahead-sized windows,
    calling [exchange] on the calling domain after every window
    barrier.  Idle stretches are skipped: the next window starts at
    the earliest pending event across partitions, so barrier rounds
    scale with event count, not simulated time.  One {!Pool.team} of
    [min jobs (Array.length parts)] domains serves the whole run and
    each window is one {!Pool.round}; with [jobs = 1] (the default)
    everything runs in partition order on the calling domain with no
    domain spawned — the reference the parallel path must match byte
    for byte.

    If a partition raises, the whole window still completes, at any
    [jobs] value including 1, then the exception of the smallest
    failing partition index is re-raised with its original backtrace
    — deterministic failures, like {!Pool.map}.  Workers are always
    joined, also when [exchange] raises.
    Raises [Invalid_argument] when [lookahead <= 0], [until < 0] or
    [jobs < 1]. *)
