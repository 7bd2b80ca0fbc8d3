(** An MTP endpoint: the host-side protocol machine.

    Messages are the unit of transfer, acknowledgement, retransmission
    and scheduling (paper §3.1.2).  There is no connection setup: the
    first packet of a message carries everything a receiver or network
    device needs (identity, size in bytes and packets, priority,
    traffic class).  Acknowledgements are per packet (SACK entries) and
    echo the network's pathlet feedback back to the source, which
    drives the per-pathlet congestion controllers of {!Pathlet}.

    Reliability: lost packets are recovered by NACKs (when an NDP-style
    trimming switch turned the packet into a header) or by a
    per-message retransmission timer.  Completion fires when every
    packet has been acknowledged. *)

type t

type delivery = {
  dl_src : Netsim.Packet.addr;
  dl_src_port : int;
  dl_dst_port : int;
  dl_msg_id : int;
  dl_size : int;
  dl_cookie : int;
  dl_cookie2 : int;
  dl_pri : int;
  dl_tc : int;
  dl_latency : Engine.Time.t;
      (** First-packet-seen to completion at the receiver. *)
}

val attach :
  ?algo:Cc.algo ->
  ?init_window:int ->
  ?entity:int ->
  ?max_msg_bytes:int ->
  ?exclusion:bool ->
  ?ack_every:int ->
  ?ack_delay:Engine.Time.t ->
  Netsim.Host.t ->
  t
(** Register an MTP endpoint with a host's dispatcher.  It claims
    MTP data for its bound ports and acks for its outstanding
    messages.  [algo] (default [Dctcp]) is the default
    per-pathlet congestion controller.  Packets carry 1440 payload
    bytes.  [max_msg_bytes] and a fixed cap of 2{^20} partially
    received messages bound receiver state (messages beyond them are
    rejected and counted).  With [exclusion] (default true), data
    headers list recently congested and suspect pathlets in the
    path-exclude field.

    Pathlet failover uses {!Pathlet.create}'s defaults: after 3
    consecutive RTOs a pathlet is excluded from steering, then probed
    with one data packet per 500 us until an ack revives it.

    [ack_every] (default 1 = acknowledge every packet) enables
    feedback aggregation (paper §4): SACK entries towards a source are
    coalesced until [ack_every] accumulate or [ack_delay] (default
    10 us) elapses; NACKs and message-completing packets always flush
    immediately.  An ack's SACK count is a u8, so [ack_every] must be
    in 1..255.

    @raise Invalid_argument when [ack_every] is outside 1..255. *)

val sim : t -> Engine.Sim.t

val bind : t -> port:int -> (delivery -> unit) -> unit
(** Deliver completed messages for [port] to the callback. *)

val unbind : t -> port:int -> unit
(** Remove a binding (late deliveries are dropped). *)

val fresh_port : t -> int
(** Allocate an unused ephemeral port (for reply routing). *)

val send :
  t ->
  dst:Netsim.Packet.addr ->
  dst_port:int ->
  ?src_port:int ->
  ?pri:int ->
  ?tc:int ->
  ?cookie:int ->
  ?cookie2:int ->
  ?deadline:Engine.Time.t ->
  ?on_complete:(Engine.Time.t -> unit) ->
  ?on_error:(Engine.Time.t -> unit) ->
  size:int ->
  unit ->
  int
(** Queue a message; returns its id.  [pri] (default 0, lower = more
    urgent) orders concurrent messages at the sender and in priority
    queues.  [on_complete] receives the flow completion time (send
    to last-ACK).  With [deadline] (relative to the send time), a
    message still unacknowledged when it expires is aborted: its
    flight is discharged, state is dropped, and [on_error] (if any)
    receives the elapsed time — the message-level failure surface for
    applications that must not wait forever.  [size] must be
    positive and [tc] within 0..255 (the header's u8 field). *)

val pathlets : t -> Pathlet.t
(** The endpoint's pathlet table (inspection / per-pathlet algorithm
    overrides). *)

val active_messages : t -> int
(** Transmit messages not yet fully acknowledged. *)

val current_path : t -> dst:Netsim.Packet.addr -> Wire.path_ref list
(** Pathlets the network most recently reported for this
    destination. *)

val charged_flight : t -> (Wire.path_ref * int) list
(** For every pathlet some in-flight packet is charged to, the summed
    payload of those packets, in pathlet order.  Flight accounting is
    exact when each pathlet's {!Pathlet.inflight} equals its sum here
    (and is zero for pathlets not listed). *)

val check_pump : t -> unit
(** The send pump's bookkeeping holds: the active list is exactly the
    unacknowledged messages, in strictly increasing (priority, id)
    order, and each (destination, traffic class) lane's counts of
    messages with a next packet and with a sub-MTU one, and the count
    of lanes with a ready message, equal a recount.

    @raise Failure naming the first discrepancy. *)

(** {1 Counters} *)

val completed : t -> int
(** Messages fully acknowledged at the sender. *)

val failed : t -> int
(** Messages aborted by their deadline. *)

val delivered_messages : t -> int
val delivered_bytes : t -> int
val retransmits : t -> int
val timeouts : t -> int
val nacks_received : t -> int
val rejected : t -> int
(** Messages refused by receiver-side state bounds. *)

val acks_sent : t -> int
(** Acknowledgement packets emitted (drops with coalescing). *)

module Messaging : Netsim.Transport_intf.S with type t = t
(** Drive this endpoint through the unified transport interface;
    [stream] runs a closed-loop chain of 250 kB messages. *)
