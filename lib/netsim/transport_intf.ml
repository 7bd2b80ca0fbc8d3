(* One message-transport interface for every stack (TCP, DCTCP, UDP,
   proxied TCP, MTP endpoints), so experiments drive any of them
   through the same first-class module instead of bespoke wiring. *)

type delivery = {
  msg_src : Packet.addr;  (** Sender's address. *)
  msg_src_port : int;
  msg_size : int;  (** Application bytes delivered. *)
  msg_latency : Engine.Time.t;
      (** Transport's own notion of message latency at the receiver;
          [0] when the transport cannot measure it. *)
}

type stats = {
  tx_messages : int;  (** Messages the application asked to send. *)
  rx_messages : int;  (** Complete messages delivered to listeners. *)
  rx_bytes : int;  (** Application bytes delivered to listeners. *)
  retransmits : int;
}

module type S = sig
  type t

  val id : string
  (** Short transport name for reports ("tcp", "udp", "mtp", ...). *)

  val listen :
    t ->
    port:int ->
    ?on_data:(int -> unit) ->
    ?on_message:(delivery -> unit) ->
    unit ->
    unit
  (** Accept messages on [port].  [on_data] fires per delivered chunk
      (byte counting for meters); [on_message] fires once per complete
      message. *)

  val send_message :
    t ->
    dst:Packet.addr ->
    dst_port:int ->
    ?on_complete:(Engine.Time.t -> unit) ->
    size:int ->
    unit ->
    unit
  (** Send one [size]-byte message; [on_complete] fires with the
      message completion time (transport-defined: acked, FIN-acked, or
      drained). *)

  val stats : t -> stats
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let pack (type a) (module M : S with type t = a) stack = Packed ((module M), stack)

let id (Packed ((module M), _)) = M.id

let listen (Packed ((module M), stack)) ~port ?on_data ?on_message () =
  M.listen stack ~port ?on_data ?on_message ()

let send_message (Packed ((module M), stack)) ~dst ~dst_port ?on_complete
    ~size () =
  M.send_message stack ~dst ~dst_port ?on_complete ~size ()

let stats (Packed ((module M), stack)) = M.stats stack
