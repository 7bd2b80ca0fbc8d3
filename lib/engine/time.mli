(** Simulated time and link-rate arithmetic.

    Time is an integer count of nanoseconds since the start of the
    simulation.  An OCaml [int] (63 bits) covers ~292 years of simulated
    time, far beyond any experiment in this repository.  Rates are bits
    per second. *)

type t = int
(** Nanoseconds. *)

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val to_float_s : t -> float
(** Time in seconds, for reporting. *)

val to_float_us : t -> float
(** Time in microseconds, for reporting. *)

(** {1 Rates} *)

type rate = int
(** Bits per second. *)

val gbps : int -> rate
val mbps : int -> rate

val tx_time : bytes:int -> rate:rate -> t
(** [tx_time ~bytes ~rate] is the serialization delay of [bytes] on a
    link of [rate] bits per second, rounded to the nearest nanosecond
    (and at least 1 ns for a non-empty transmission). *)

val bytes_in : rate:rate -> t -> int
(** [bytes_in ~rate dt] is how many bytes a link of [rate] transfers in
    [dt]; the inverse of {!tx_time}. *)
