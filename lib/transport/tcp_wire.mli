(** TCP segment representation carried inside {!Netsim.Packet.t}.

    Sequence numbers are byte offsets from 0 (no ISN randomization —
    irrelevant to the simulated mechanisms).  The SYN and FIN flags
    each consume one sequence byte, as in real TCP.

    Every field is mutable, but a segment belongs to one packet, and
    only its holder writes to it.  A released packet keeps its {!Tcp}
    box, which the host's next sender refills ({!fill}) and sends
    again: nothing may read a segment after its claim returns. *)

type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;  (** First sequence byte of this segment's payload. *)
  mutable ack : int;  (** Cumulative acknowledgement (next expected byte). *)
  mutable payload : int;  (** Payload length in bytes (no actual data). *)
  mutable syn : bool;
  mutable fin : bool;
  mutable is_ack : bool;  (** Whether [ack] is valid. *)
  mutable ece : bool;  (** ECN-Echo: receiver saw CE on the acked data. *)
  mutable probe : bool;  (** Zero-window probe; receivers always answer it. *)
  mutable rwnd : int;  (** Advertised receive window in bytes. *)
}

type Netsim.Packet.proto += Tcp of t

val fill :
  t ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  payload:int ->
  syn:bool ->
  fin:bool ->
  is_ack:bool ->
  ece:bool ->
  probe:bool ->
  rwnd:int ->
  unit
(** Overwrite every field: the one way a segment is filled, fresh
    ({!blank}) or reused.  Labels are required: optional ones box. *)

val blank : unit -> t
(** A fresh segment with every field zero or false, for {!fill}. *)

val segment : Netsim.Packet.proto -> t
(** The segment in a {!Tcp} payload.
    @raise Invalid_argument on any other payload. *)

val packet :
  Netsim.Packet.pool ->
  src:Netsim.Packet.addr ->
  dst:Netsim.Packet.addr ->
  entity:int ->
  Netsim.Packet.proto ->
  Netsim.Packet.t
(** [packet pool ~src ~dst ~entity (Tcp seg)] takes a packet from the
    pool ({!Netsim.Packet.take}) with that very [Tcp] value as payload,
    40 header bytes plus [payload] on the wire and the ports hashed.
    @raise Invalid_argument when the payload is not [Tcp]. *)
