(** Deterministic multicore job runner (OCaml 5 domains).

    Maps a function over a list of {e closed} jobs — each builds its
    own [Sim], owns its seed, shares no mutable state — on a
    fixed-size worker pool, and returns the results {b in input order,
    independent of scheduling}: the output for a given list is
    byte-identical whether run with [~jobs:1] or [~jobs:32].  This is
    the contract every exhibit relies on; see DESIGN.md "Parallel
    runner". *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — one worker per core. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed on a pool of
    [min jobs (length xs)] domains (default {!default_jobs};
    [~jobs:1] runs serially on the calling domain, spawning nothing),
    results in input order.  If any [f x] raises, the exception of the
    first failing index is re-raised after the pool drains — same
    failure whatever the schedule — with the original backtrace
    preserved ([Printexc.raise_with_backtrace] on the trace captured
    where the job crashed).  Raises [Invalid_argument] when
    [jobs < 1]. *)
