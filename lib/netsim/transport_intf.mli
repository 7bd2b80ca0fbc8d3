(** The unified message-transport interface.

    Every transport stack (TCP, DCTCP, UDP, proxied TCP, MTP
    endpoints) exposes a [Messaging] module satisfying {!S}; {!packed}
    pairs the module with a stack value so heterogeneous transports
    can be stored and driven uniformly by experiments.

    The interface carries messages only: listen on a port, send one
    message, read counters.  A saturating transfer is a closed loop of
    messages ([Workload.Driver.closed_loop]) or, for TCP, the stack's
    own byte stream ([Transport.Tcp.stream]); knobs one stack alone
    honours, such as MTP's traffic class, are set through that stack's
    own functions. *)

type delivery = {
  msg_src : Packet.addr;
  msg_src_port : int;
  msg_size : int;
  msg_latency : Engine.Time.t;
}

type stats = {
  tx_messages : int;
  rx_messages : int;
  rx_bytes : int;
  retransmits : int;
}

module type S = sig
  type t

  val id : string

  val listen :
    t ->
    port:int ->
    ?on_data:(int -> unit) ->
    ?on_message:(delivery -> unit) ->
    unit ->
    unit

  val send_message :
    t ->
    dst:Packet.addr ->
    dst_port:int ->
    ?on_complete:(Engine.Time.t -> unit) ->
    size:int ->
    unit ->
    unit

  val stats : t -> stats
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

val pack : (module S with type t = 'a) -> 'a -> packed

(** Generic dispatchers over a packed transport. *)

val id : packed -> string

val listen :
  packed ->
  port:int ->
  ?on_data:(int -> unit) ->
  ?on_message:(delivery -> unit) ->
  unit ->
  unit

val send_message :
  packed ->
  dst:Packet.addr ->
  dst_port:int ->
  ?on_complete:(Engine.Time.t -> unit) ->
  size:int ->
  unit ->
  unit

val stats : packed -> stats
