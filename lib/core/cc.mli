(** Per-pathlet congestion controllers.

    One instance evolves the congestion state of a single
    [(pathlet, traffic class)] pair (paper §3.1.3).  Because feedback
    is typed ({!Feedback.t}), instances running different algorithms
    coexist on one path: a DCTCP hop marks, an RCP hop grants rates, a
    Swift-style endpoint watches delay — each entry is dispatched to
    the controller of the pathlet that produced it. *)

type algo =
  | Aimd  (** Reno-style: slow start + AIMD, halve on congestion. *)
  | Dctcp
      (** Alpha-proportional decrease from ECN mark fraction; alpha's
          EWMA gain is 1/16 (RFC 8257). *)
  | Rcp
      (** Explicit rate: the window tracks the latest {!Feedback.Rate}
          grant times the smoothed RTT. *)
  | Swift
      (** Delay-based: decrease when fabric delay exceeds 20 us. *)

type t

val create : ?init_window:int -> ?mss:int -> algo -> t
(** [init_window] defaults to 10 [mss]; [mss] to 1440 payload bytes. *)

val algo : t -> algo

type signal
(** One pathlet's share of an acknowledgement, folded from its
    feedback entries: whether any entry signals congestion
    ({!Feedback.is_congested}), a trim, or an ECN mark, the last rate
    grant and the largest delay report.  A mutable scratch value: fold
    into it, feed it to {!on_signal}, clear it for the next pathlet. *)

val signal : unit -> signal
(** An empty signal (as after {!clear}). *)

val clear : signal -> unit

val fold : signal -> Feedback.t -> unit
(** Add one feedback entry. *)

val on_signal :
  t -> now:Engine.Time.t -> acked:int -> rtt:Engine.Time.t -> signal -> unit
(** The controller's one update: [acked] payload bytes left the
    network, [rtt] is a fresh sample when the acked packet was not
    retransmitted ([rtt < 0]: no sample), and the signal holds this
    pathlet's entries from the ACK. *)

val on_ack :
  t ->
  now:Engine.Time.t ->
  acked:int ->
  ?rtt:Engine.Time.t ->
  Feedback.t list ->
  unit
(** {!on_signal} with the list's entries folded into a fresh signal. *)

val on_loss : t -> now:Engine.Time.t -> unit
(** A retransmission timeout attributed to this pathlet. *)

val window : t -> int
(** Current allowed bytes in flight (≥ 1 mss). *)

val srtt : t -> Engine.Time.t
(** Smoothed RTT over this pathlet (initial 100 us before samples). *)

val rto : t -> Engine.Time.t

val congested : t -> now:Engine.Time.t -> bool
(** Whether feedback within the last two RTTs indicated congestion —
    the signal the endpoint uses to populate the header's path-exclude
    list. *)
