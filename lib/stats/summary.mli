(** Sample collection with exact order statistics.

    Samples are stored; percentiles sort on demand (cached until the
    next insertion).  Experiment populations here are at most a few
    hundred thousand samples, so exact quantiles are affordable and
    avoid sketch error. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val cv : t -> float
(** Coefficient of variation: population standard deviation over the
    mean; 0 when the mean is 0 or there are fewer than two samples. *)

val min_value : t -> float
(** @raise Invalid_argument when empty. *)

val max_value : t -> float
(** @raise Invalid_argument when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]], by linear interpolation
    between closest ranks.
    @raise Invalid_argument when empty or [p] out of range. *)

val median : t -> float

val samples : t -> float array
(** A copy of the samples in insertion order. *)
