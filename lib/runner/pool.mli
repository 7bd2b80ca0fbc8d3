(** Deterministic multicore runner (OCaml 5 domains).

    One {!team} of domains serves both of the library's users: {!map},
    which spreads {e closed} jobs — each builds its own [Sim], owns its
    seed, shares no mutable state — and returns the results {b in input
    order, independent of scheduling}, and {!Epoch.run}, which runs one
    {!round} per window of a partitioned scenario.  Output is
    byte-identical whether run with [~jobs:1] or [~jobs:32]; this is the
    contract every exhibit relies on.  See DESIGN.md "Parallel runner". *)

type team
(** The calling domain plus [jobs - 1] worker domains that wait on a
    condition variable between rounds. *)

val with_team : jobs:int -> (team -> 'a) -> 'a
(** [with_team ~jobs f] runs [f] with a team of [jobs >= 1] domains,
    then stops and joins the workers, also when [f] raises.  A team of
    one spawns nothing. *)

val round : team -> n:int -> arg:int -> (int -> int -> unit) -> unit
(** [round team ~n ~arg work] runs [work i arg] for every [i < n],
    spread over the team (a team of one runs them in index order on the
    caller), and returns when all have run.  Every index runs even
    after one raises; then the exception of the smallest failing index
    is re-raised with the backtrace captured where it was raised.  A
    round allocates nothing unless an index raises. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed as one {!round} on a
    team of [min jobs (length xs)] domains (default one per core,
    [Domain.recommended_domain_count ()];
    [~jobs:1] runs serially on the calling domain, spawning nothing),
    results in input order.  Every [f x] runs even if one raises; then
    the exception of the first failing index is re-raised — same
    failure whatever the schedule — with the original backtrace.
    Raises [Invalid_argument] when [jobs < 1]. *)
