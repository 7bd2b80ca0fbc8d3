(** Throughput/goodput meters.

    A meter counts bytes and, when attached to a {!Engine.Sim.t} with a
    sampling interval, appends the achieved rate (in Gbps) of each
    interval to a {!Timeseries.t} — exactly how the paper's
    "throughput sampled every 32 us" figures are produced. *)

type t

val create : Engine.Sim.t -> interval:Engine.Time.t -> unit -> t
(** Starts sampling immediately; each tick records the rate over the
    preceding interval and resets the interval counter. *)

val count_bytes : t -> int -> unit
(** Credit [n] bytes to the current interval. *)

val stop : t -> unit
(** Stop sampling at the next tick. *)

val series : t -> Timeseries.t
(** Per-interval rates in Gbps. *)

val total_bytes : t -> int

val mean_gbps : t -> float
(** Mean of the per-interval rates (0 when no interval completed). *)
