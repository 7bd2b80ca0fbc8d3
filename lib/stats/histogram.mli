(** Fixed-bucket histogram over a linear or logarithmic range. *)

type t

val create_linear : lo:float -> hi:float -> buckets:int -> t
(** Equal-width buckets spanning [\[lo, hi)]; out-of-range samples go
    to saturating under/overflow buckets. *)

val create_log : lo:float -> hi:float -> buckets:int -> t
(** Buckets equal-width in [log] space.  [lo] must be positive. *)

val add : t -> float -> unit
(** NaN samples are filed in a dedicated {!invalid} cell, never in a
    bucket. *)

val absorb : t -> from:t -> unit
(** Add every count of [from] into [t].
    @raise Invalid_argument unless both have the same scale, bounds and
    bucket count. *)

val count : t -> int
(** Total samples recorded, excluding {!invalid} ones. *)

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
