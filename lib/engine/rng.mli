(** Deterministic pseudo-random number generation (SplitMix64).

    All randomness in the simulator flows through an explicit [Rng.t]
    so experiments are reproducible from a seed alone.  SplitMix64 is
    small, fast, passes BigCrush, and supports cheap independent child
    streams ({!derive}). *)

type t

val create : int -> t
(** [create seed] is a fresh generator.  Equal seeds give equal
    streams. *)

val derive : t -> int -> t
(** [derive t i] is the [i]-th child stream of [t]'s current state
    ([i >= 0]).  It does not advance [t]: the family
    [derive t 0 .. derive t (n-1)] is a pure function of [t]'s state,
    so per-job seeds drawn from it are identical however (and on
    whichever domain) the jobs are scheduled.  Distinct indices give
    independent streams (SplitMix64 golden-gamma spacing, remixed). *)

val as_seed : t -> int
(** Project the generator's current state to a non-negative [int],
    for components that take integer seeds ([Sim.create ~seed],
    experiment configs).  Equal states give equal seeds. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be
    positive. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto distributed: minimum value [scale], tail index [shape]. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal with the given parameters of the underlying normal. *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian via Box–Muller. *)
