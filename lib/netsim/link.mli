(** Unidirectional links with an output queue, serialization delay, and
    propagation delay.

    Model: a packet handed to {!send} enters the link's qdisc.  The
    transmitter drains the qdisc one packet at a time, occupying the
    wire for [Time.tx_time ~bytes ~rate]; each packet then arrives at
    the destination handler one propagation [delay] later.  This is the
    standard store-and-forward model used by ns-3 point-to-point
    links: one transmit-completion event and one delivery event per
    packet, so every queue decision reads the queue at the packet's own
    service instant. *)

type t

val create :
  Packet.pool ->
  name:string ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?qdisc:Qdisc.t ->
  unit ->
  t
(** A link transmitting in the pool's simulator; every packet it drops
    goes back to [pool] ({!Packet.pool} states who owns a packet).
    [qdisc] defaults to a 1000-packet drop-tail FIFO.  The destination
    must be wired with {!set_dst} before the first {!send}. *)

val set_dst : t -> (Packet.t -> unit) -> unit
(** The destination handler: every delivered packet is handed to it
    once, at its own arrival instant. *)

val add_tap : t -> (Engine.Time.t -> Packet.t -> unit) -> unit
(** Observe every delivered packet (after serialization and
    propagation), before the destination handler runs.  Taps fire in
    installation order. *)

val send : t -> Packet.t -> unit
(** Enqueue a packet for transmission.  Drops (qdisc refusals) are
    counted on the qdisc and released to the link's pool. *)

val qdisc : t -> Qdisc.t

val set_qdisc : t -> Qdisc.t -> unit
(** Replace the output queue (e.g. to wrap it with feedback-stamping
    hooks).  Pending packets in the old qdisc are not migrated; do this
    at setup time. *)

val is_up : t -> bool

val set_down : t -> unit
(** Fail the link: the in-progress serialisation is aborted, queued
    packets are flushed, and packets still propagating are lost on
    arrival.  Every packet lost this way is counted in {!fault_drops}
    and released back to the link's pool.  While down,
    {!send} drops immediately.  Idempotent. *)

val set_up : t -> unit
(** Revive a failed link; the transmitter resumes draining the qdisc.
    Idempotent. *)

val fault_drops : t -> int
(** Packets lost to {!set_down} (aborted, flushed, in-flight at
    failure, or sent while down). *)

val sends : t -> int
(** Packets ever offered to {!send} (accepted or not). *)

val delivered_pkts : t -> int
(** Packets handed to the destination.  Together
    with the qdisc drop counter these close the per-link conservation
    invariant the [Check.Ledger] oracle asserts:
    [sends = delivered_pkts + qdisc drops + fault_drops + queued_pkts
    + in_flight_pkts]. *)

val queued_pkts : t -> int
(** Packets currently waiting in the qdisc. *)

val in_flight_pkts : t -> int
(** Packets serialising or propagating on the wire right now. *)

val rate : t -> Engine.Time.rate
val name : t -> string

val sim : t -> Engine.Sim.t
(** The simulator the link transmits in. *)

val bytes_sent : t -> int
(** Bytes fully serialized onto the wire so far. *)

val busy : t -> bool
(** Whether the transmitter currently holds a packet. *)

val utilization : t -> since:Engine.Time.t -> float
(** Fraction of capacity used between [since] and now, from
    {!bytes_sent} deltas (callers snapshot bytes themselves for finer
    accounting); computed as sent bits / (rate * elapsed).  Returns 0.0
    when [since] is at or past the current sim time. *)
