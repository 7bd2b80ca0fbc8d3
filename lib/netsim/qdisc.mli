(** Queue disciplines for link output queues.

    A qdisc is a record of closures so that link code is agnostic to
    the queueing policy and new policies compose (see {!with_hooks},
    used by MTP switches to stamp pathlet feedback at enqueue time). *)

type t = {
  name : string;
  enqueue : Packet.t -> bool;
      (** [false] means the packet was dropped (or, for a trimming
          qdisc, note the packet may be mutated and still accepted).
          Never called with {!Packet.none}: {!Link.send} refuses it,
          since a queued sentinel would read as an empty queue. *)
  dequeue : unit -> Packet.t;
      (** The head packet, or {!Packet.none} exactly when the queue is
          empty (a sentinel rather than an option, so a dequeue
          allocates nothing).  Test the result with [==]. *)
  enqueue_burst : Pktring.t -> rejects:Pktring.t -> int;
      (** Kept only because bench/suite/span.ml wraps it; links use
          {!enqueue}, so do not call it.  Drains [src] into the queue
          with {!enqueue}'s decisions, refused packets to [rejects];
          returns the number accepted. *)
  dequeue_burst : Pktring.t -> max:int -> int;
      (** Kept only for bench/suite/span.ml, like [enqueue_burst].
          Moves up to [max] head packets into the destination ring as
          [max] calls of {!dequeue} would; returns how many moved. *)
  byte_length : unit -> int;  (** Bytes currently queued. *)
  pkt_length : unit -> int;  (** Packets currently queued. *)
  drops : unit -> int;  (** Packets dropped since creation. *)
  marks : unit -> int;  (** Packets CE-marked since creation. *)
  trims : unit -> int;  (** Packets trimmed to headers since creation. *)
  max_bytes_seen : unit -> int;  (** High-watermark of queued bytes. *)
}

val burst_of_enqueue :
  (Packet.t -> bool) -> Pktring.t -> rejects:Pktring.t -> int
(** Build {!t.enqueue_burst} from a per-packet enqueue — the fallback
    used by every constructor and by wrappers ({!Fault.lossy}) whose
    enqueue overrides the inner one. *)

val fifo : cap_pkts:int -> unit -> t
(** Drop-tail FIFO bounded by packets. *)

val ecn : cap_pkts:int -> mark_threshold:int -> unit -> t
(** Drop-tail FIFO that sets the CE bit on packets arriving when the
    instantaneous queue length is at least [mark_threshold] packets —
    the DCTCP marking scheme. *)

val red :
  rng:Engine.Rng.t -> cap_pkts:int -> min_th:int -> max_th:int -> unit -> t
(** Random Early Detection with ECN marking: an EWMA of the queue
    length (gain 0.002 per arrival) drives a marking probability that
    rises linearly from 0 at [min_th] to 0.1 at [max_th], and 1
    beyond; marked packets get the CE bit rather than being dropped
    (drops still happen at [cap_pkts]).  Randomness comes from the
    supplied [rng] so runs stay deterministic. *)

val trimming : cap_pkts:int -> unit -> t
(** NDP-style: when the data queue is full, incoming packets are
    trimmed to 64 header bytes, flagged {!Packet.t.trimmed}, and
    placed on a strict-priority header queue (served first) so
    receivers learn about losses immediately.  Headers are only dropped
    when the header queue itself overflows (at [8 * cap_pkts]). *)

val wrr :
  ?mark_threshold:int ->
  classify:(Packet.t -> int) ->
  weights:int array ->
  cap_pkts:int ->
  unit ->
  t
(** Deficit-weighted round robin across [Array.length weights] classes,
    each a drop-tail FIFO of [cap_pkts] packets.  With
    [mark_threshold], packets are CE-marked per class when that class'
    queue reaches the threshold — the "separate queues per tenant"
    baseline of the paper's Fig. 7. *)

val fair_mark :
  classify:(Packet.t -> int) ->
  ?shares:float array ->
  cap_pkts:int ->
  mark_threshold:int ->
  unit ->
  t
(** A single shared drop-tail FIFO that enforces per-entity shares
    {e without separate queues} (the paper's Fig. 7 MTP switch): each
    class' arrival-rate share is estimated over a ring of recent
    arrivals, and when the queue is at least [mark_threshold] packets
    deep, an arriving packet is CE-marked iff its class' share exceeds
    its policy share (with 10% slack).  Endpoints with an ECN-reactive
    congestion controller then converge to the configured shares.
    [shares] defaults to equal shares among active classes and must
    sum to ~1. *)

val with_hooks :
  ?on_enqueue:(Packet.t -> unit) ->
  ?on_drop:(Packet.t -> unit) ->
  ?on_dequeue:(Packet.t -> unit) ->
  t ->
  t
(** Wrap a qdisc with observation hooks.  [on_enqueue] fires after a
    successful enqueue (the packet may be mutated by the hook, e.g. to
    stamp congestion feedback); [on_drop] fires when the inner qdisc
    refuses a packet. *)
