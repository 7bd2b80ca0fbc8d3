(** Fixed-bucket histogram over a linear or logarithmic range. *)

type t

val create_linear : lo:float -> hi:float -> buckets:int -> t
(** Equal-width buckets spanning [\[lo, hi)]; out-of-range samples go
    to saturating under/overflow buckets. *)

val create_log : lo:float -> hi:float -> buckets:int -> t
(** Buckets equal-width in [log] space.  [lo] must be positive. *)

val add : t -> float -> unit

val add_many : t -> float -> int -> unit
(** [add_many t v n] records value [v] with multiplicity [n].  NaN
    samples are filed in a dedicated {!invalid} cell, never in a
    bucket. *)

val count : t -> int
(** Total samples recorded, excluding {!invalid} ones (so the {!cdf}
    still reaches 1). *)

val bucket_count : t -> int

val bucket_range : t -> int -> float * float
(** Inclusive-lo / exclusive-hi bounds of a bucket index. *)

val bucket_value : t -> int -> int
(** Occupancy of a bucket index. *)

val underflow : t -> int
val overflow : t -> int

val invalid : t -> int
(** NaN samples received; kept out of every bucket and out of
    {!count}. *)

val cdf : t -> (float * float) list
(** [(upper_bound, cumulative_fraction)] per bucket, using total count
    including under/overflow. *)
