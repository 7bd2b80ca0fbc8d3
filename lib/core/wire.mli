(** The MTP packet header (paper Fig. 4), with a real binary encoding.

    Every packet of a message carries the message's identity and
    geometry, so any network device can parse a message and size its
    buffering without per-flow state (paper §3.1.2).  The encoding is
    executable documentation of Fig. 4: the simulator charges each
    packet exactly [encoded_size h] header bytes, and round-trip
    property tests pin the format. *)

type path_ref = { path_id : int; path_tc : int }
(** A pathlet reference: pathlet id plus the traffic class whose queue
    (and congestion state) is meant. *)

type path_fb = { fb_path : path_ref; fb : Feedback.t }

type pkt_ref = { mutable ref_msg : int; mutable ref_pkt : int }
(** An (msg id, packet number) pair, the unit of SACK/NACK.  Mutable
    only for a header's own cell ({!refill_cell}); every other
    reference is built fresh and never written. *)

(** Every field is mutable, but a header belongs to exactly one packet:
    the holder of that packet is the only writer.  Network devices
    stamp [path_feedback] in place ({!add_feedback}); rewriters copy
    with [{h with ...}] instead of writing.  A released packet keeps
    its {!Mtp} box, which the host's next MTP sender refills ({!fill})
    and sends again: nothing may read a header after its claim
    returns.

    A header box owns its SACK cell, [sack_cell]: a one-entry list
    whose reference an acking endpoint refills ({!refill_cell}) and
    hands to {!fill} as the box's [sack] or [nack], so an immediate
    ack allocates no list.  The cell goes with the box from packet to
    packet and is never shared: {!blank}, {!decode} and {!copy} give
    each header its own, and a rewriter copies with {!copy}, not
    [{h with ...}], which would share it.  It is not on the wire:
    {!encode} and {!equal} ignore it. *)
type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable msg_id : int;  (** Unique among the source's outstanding messages. *)
  mutable msg_pri : int;  (** Application-assigned relative priority. *)
  mutable msg_tc : int;  (** Traffic class (provenance/entity). *)
  mutable msg_len : int;  (** Message length in bytes. *)
  mutable msg_pkts : int;  (** Message length in packets. *)
  mutable pkt_num : int;  (** This packet's index within the message. *)
  mutable pkt_offset : int;  (** Byte offset of this packet's payload. *)
  mutable pkt_len : int;  (** Payload bytes in this packet. *)
  mutable is_ack : bool;
  mutable cookie : int;
      (** Models the first four payload/application-header bytes
          (opcode, blob id, …); charged as header bytes. *)
  mutable cookie2 : int;  (** Second application word (key, offset, …). *)
  mutable path_exclude : path_ref list;
      (** Pathlets the source asks the network to avoid. *)
  mutable path_feedback : path_fb list;
      (** Appended by network devices en route (empty at origin).  The
          list itself is immutable and may be shared between headers;
          appending replaces it, never extends it. *)
  mutable ack_path_feedback : path_fb list;
      (** The receiver's copy of the data packet's [path_feedback],
          returned to the source on the ACK. *)
  mutable sack : pkt_ref list;  (** Selectively acknowledged packets. *)
  mutable nack : pkt_ref list;  (** Negatively acknowledged (e.g. trimmed). *)
  sack_cell : pkt_ref list;  (** This box's own cell; see above. *)
}

type Netsim.Packet.proto += Mtp of t

val fixed_size : int
(** Header bytes before the variable-length lists. *)

val encoded_size : t -> int
(** Exact wire size of the header, without materializing it. *)

val encode : t -> Bytes.t
(** @raise Invalid_argument when a list holds more than 255 entries,
    the most its u8 count can say. *)

val decode : Bytes.t -> t
(** @raise Failure on malformed input. *)

val fill :
  t ->
  is_ack:bool ->
  pri:int ->
  tc:int ->
  cookie:int ->
  cookie2:int ->
  exclude:path_ref list ->
  src_port:int ->
  dst_port:int ->
  msg_id:int ->
  msg_len:int ->
  msg_pkts:int ->
  pkt_num:int ->
  pkt_offset:int ->
  pkt_len:int ->
  sack:pkt_ref list ->
  nack:pkt_ref list ->
  ack_path_feedback:path_fb list ->
  unit
(** Overwrite every field of the header in place, [path_feedback] with
    the empty list: the one way a header is filled, whether fresh
    ({!data}, {!ack}) or reused by the endpoint that owns it.  Every
    field is a required label: optional arguments would box each one
    given. *)

val blank : unit -> t
(** A fresh header with every field zero or empty, for {!fill}, and a
    cell of its own. *)

val copy : t -> t
(** A copy of the header with a fresh cell: the one way to rewrite a
    header into a new box. *)

val refill_cell : t -> msg_id:int -> pkt_num:int -> pkt_ref list
(** Point the header's own cell at packet [pkt_num] of message
    [msg_id] and return it: the one-entry SACK or NACK list of an ack
    sent in this box.  Earlier contents of the cell are overwritten, so
    it may only be handed to {!fill} of the same header. *)

val data :
  pri:int ->
  tc:int ->
  cookie:int ->
  cookie2:int ->
  exclude:path_ref list ->
  src_port:int ->
  dst_port:int ->
  msg_id:int ->
  msg_len:int ->
  msg_pkts:int ->
  pkt_num:int ->
  pkt_offset:int ->
  pkt_len:int ->
  t
(** A fresh data-packet header with empty feedback/ack lists. *)

val ack :
  sack:pkt_ref list ->
  nack:pkt_ref list ->
  tc:int ->
  src_port:int ->
  dst_port:int ->
  msg_id:int ->
  ack_path_feedback:path_fb list ->
  t
(** A fresh acknowledgement header (no payload). *)

val same_path : path_ref -> path_ref -> bool
(** Structural equality of two pathlet references, without the
    polymorphic compare. *)

val first_mention : path_fb list -> path_fb list -> bool
(** [first_mention fbs cells], for [cells] a suffix of [fbs]: whether
    the head of [cells] is the first entry of [fbs] naming its
    pathlet.  Walking [fbs] and keeping only these visits each distinct
    pathlet once, in order of first appearance, allocating nothing. *)

val add_feedback : t -> path_ref -> Feedback.t -> unit
(** Append one network-appended feedback entry to the header's
    [path_feedback], in place.  The old list is copied, not extended,
    so a list shared with another header never changes. *)

val header : Netsim.Packet.proto -> t
(** The header in an {!Mtp} payload.
    @raise Invalid_argument on any other payload. *)

val packet :
  Netsim.Packet.pool ->
  src:Netsim.Packet.addr ->
  dst:Netsim.Packet.addr ->
  entity:int ->
  Netsim.Packet.proto ->
  Netsim.Packet.t
(** [packet pool ~src ~dst ~entity (Mtp h)] wraps [h] in a packet taken
    from the pool ({!Netsim.Packet.take}), with the given [Mtp] value
    as its payload, so a sender that refills the box of a parked packet
    allocates no new one: wire size is [encoded_size h +
    pkt_len], priority is [msg_pri], and the flow hash covers the
    ports.
    @raise Invalid_argument when the payload is not [Mtp]. *)

val equal : t -> t -> bool
(** Field-by-field equality of two headers, cells aside. *)
