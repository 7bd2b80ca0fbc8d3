(** TCP segment representation carried inside {!Netsim.Packet.t}.

    Sequence numbers are byte offsets from 0 (no ISN randomization —
    irrelevant to the simulated mechanisms).  The SYN and FIN flags
    each consume one sequence byte, as in real TCP. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int;  (** First sequence byte of this segment's payload. *)
  ack : int;  (** Cumulative acknowledgement (next expected byte). *)
  payload : int;  (** Payload length in bytes (no actual data). *)
  syn : bool;
  fin : bool;
  is_ack : bool;  (** Whether [ack] is valid. *)
  ece : bool;  (** ECN-Echo: receiver saw CE on the acked data. *)
  probe : bool;  (** Zero-window probe; receivers always answer it. *)
  rwnd : int;  (** Advertised receive window in bytes. *)
}

type Netsim.Packet.proto += Tcp of t

val packet :
  Netsim.Packet.pool ->
  src:Netsim.Packet.addr ->
  dst:Netsim.Packet.addr ->
  entity:int ->
  t ->
  Netsim.Packet.t
(** Wrap a segment in a packet taken from the pool
    ({!Netsim.Packet.take}), with the right wire size and flow hash. *)
