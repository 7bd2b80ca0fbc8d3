(** Random size/interval distributions, driven by an explicit
    {!Engine.Rng.t} for reproducibility. *)

type t
(** A sampler of positive values. *)

val constant : float -> t

val pareto : shape:float -> scale:float -> t

val lognormal : mu:float -> sigma:float -> t

val clamped : lo:float -> hi:float -> t -> t
(** Clamp samples into [\[lo, hi\]]. *)

val mix : (float * t) list -> t
(** Weighted mixture; weights need not be normalized. *)

val sample : t -> Engine.Rng.t -> float

val sample_bytes : t -> Engine.Rng.t -> int
(** [max 1 (round (sample t rng))]. *)

val mean_estimate : t -> Engine.Rng.t -> int -> float
(** Monte-Carlo mean of [n] samples (for load calibration). *)
