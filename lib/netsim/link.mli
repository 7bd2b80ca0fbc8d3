(** Unidirectional links with an output queue, serialization delay, and
    propagation delay.

    Model: a packet handed to {!send} enters the link's qdisc.  The
    transmitter drains the qdisc one packet at a time, occupying the
    wire for [Time.tx_time ~bytes ~rate]; each packet then arrives at
    the destination handler one propagation [delay] later.  This is the
    standard store-and-forward model used by ns-3 point-to-point
    links.

    Links built while {!Datapath.enabled} is set (the default) run the
    batched datapath: one timer activation walks up to
    [Datapath.burst_limit] back-to-back completions, computing each
    completion instant arithmetically and eliding heap events the
    engine proves uncontested ([Sim.try_advance] for gaps,
    [Sim.plan]/[Sim.run_plan_inline] for the next completion's
    same-instant position).  Zero-delay deliveries ride the walk
    inline; delayed hops schedule one real delivery event per packet at
    its exact classic instant.  Packet timing, queue decisions and
    every observable counter are identical to the classic
    one-event-per-packet machine — the differential oracle in the test
    suite runs both and compares outputs (see DESIGN.md "Batched
    datapath"). *)

type t

val create :
  Engine.Sim.t ->
  name:string ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?qdisc:Qdisc.t ->
  ?pool:Packet.pool ->
  unit ->
  t
(** [qdisc] defaults to a 1000-packet drop-tail FIFO.  The destination
    must be wired with {!set_dst} before the first {!send}.  With
    [pool], tail-dropped packets are released back to it — only safe
    when no other component retains references to in-flight
    packets. *)

val set_dst : t -> (Packet.t -> unit) -> unit

val set_dst_burst : t -> (pull:(unit -> Packet.t option) -> unit) -> unit
(** Optional batch receiver, used by batched links instead of calling
    {!set_dst}'s handler once per packet: when at least one delivery is
    ready the link invokes the handler ONCE with a [pull] function that
    yields consecutive arrivals (advancing the virtual clock to each
    packet's own delivery time) until the next arrival needs a real
    event, then returns [None].  The handler must keep pulling until
    [None] or arrivals would stall.  Taps fire inside [pull].  Classic
    links ignore this and always use the per-packet destination, which
    must still be wired for links carrying taps or for fallback. *)

val add_tap : t -> (Engine.Time.t -> Packet.t -> unit) -> unit
(** Observe every delivered packet (after serialization and
    propagation), before the destination handler runs.  Taps fire in
    installation order. *)

val send : t -> Packet.t -> unit
(** Enqueue a packet for transmission.  Drops (qdisc refusals) are
    counted on the qdisc. *)

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
    and released back to the pool (when the link has one).  While down,
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
(** Packets handed to the destination (either datapath).  Together
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
