(** Time-indexed series of measurements.

    Used by experiment harnesses to record "value at time t" samples
    (throughput per interval, queue occupancy, window sizes) and emit
    them as the rows/series the paper's figures plot. *)

type t

val create : unit -> t

val add : t -> time:Engine.Time.t -> float -> unit
(** Timestamps must be non-decreasing. *)

val length : t -> int

val points : t -> (Engine.Time.t * float) list
(** All points, oldest first. *)

val values : t -> float array

val last : t -> (Engine.Time.t * float) option

val mean : t -> float
(** Arithmetic mean of the values; 0 on the empty series (a neutral
    value for harness summaries — use {!length} to distinguish "no
    samples" from "mean of 0"). *)

val max_value : t -> float
(** Maximum value, folding from the first point (an all-negative
    series reports its true, negative maximum).  0 on the empty
    series (use {!length} to tell it from a maximum of 0). *)

val summary : t -> Summary.t
(** Fresh summary over the series' values. *)

val between : t -> lo:Engine.Time.t -> hi:Engine.Time.t -> t
(** Sub-series with timestamps in [\[lo, hi\]]. *)

val pp_rows : Format.formatter -> t -> unit
(** Two-column ["time value"] rows, one per line, time in
    microseconds. *)
