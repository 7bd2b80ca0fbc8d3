(** Jacobson/Karels retransmission-timeout estimation (RFC 6298 with
    datacenter-scale clamps). *)

type t

val create : ?min_rto:Engine.Time.t -> ?max_rto:Engine.Time.t -> unit -> t
(** Defaults: initial 200 us, min 50 us, max 100 ms — sized for the
    microsecond RTTs of the simulated fabrics. *)

val observe : t -> Engine.Time.t -> unit
(** Feed an RTT sample (from an un-retransmitted segment). *)

val rto : t -> Engine.Time.t
(** Current timeout, including any backoff. *)

val srtt : t -> Engine.Time.t
(** Smoothed RTT (the initial RTO before any sample). *)

val backoff : t -> unit
(** Double the RTO (exponential backoff on timeout), up to the max. *)

val reset_backoff : t -> unit
(** Clear backoff after a successful ACK. *)
