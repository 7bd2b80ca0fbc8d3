(** Connectionless datagram transport.

    Messages larger than one MTU are fragmented; the receiver reports a
    message complete when all fragment bytes have arrived.  There is no
    reliability and no congestion control — UDP's row in the paper's
    Table 1. *)

type t

val attach : Netsim.Host.t -> t
(** Register a stack with a host's dispatcher.  It claims every
    datagram and sends from the host's packet pool.
    Messages go out in fragments of 1472 payload bytes. *)

val listen :
  t ->
  port:int ->
  (src:Netsim.Packet.addr -> msg_id:int -> size:int -> unit) ->
  unit
(** Completion callback: all bytes of message [msg_id] arrived. *)

val send : t -> dst:Netsim.Packet.addr -> dst_port:int -> size:int -> int
(** Fire-and-forget a [size]-byte message; returns its message id. *)

val bytes_received : t -> int
(** Total payload bytes that arrived (including incomplete
    messages). *)

module Messaging : Netsim.Transport_intf.S with type t = t
(** [send_message]'s completion fires at the sender-side drain time
    (line-rate blast, no acknowledgements). *)
