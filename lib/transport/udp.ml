type datagram = { dst_port : int; msg_id : int; len : int; total : int }

type Netsim.Packet.proto += Udp of datagram

let header_bytes = 28

(* Payload bytes per fragment. *)
let mtu_payload = 1472

type t = {
  u_node : Netsim.Node.t;
  u_sim : Engine.Sim.t;
  pool : Netsim.Packet.pool;
  listeners :
    (int, src:Netsim.Packet.addr -> msg_id:int -> size:int -> unit) Hashtbl.t;
  partial : (int * int, int) Hashtbl.t; (* (src, msg_id) -> bytes seen *)
  mutable next_msg : int;
  mutable rx_bytes : int;
  mutable completed : int;
  mutable tx_msgs : int;
}

let handle t (d : datagram) (pkt : Netsim.Packet.t) =
  t.rx_bytes <- t.rx_bytes + d.len;
  match Hashtbl.find_opt t.listeners d.dst_port with
  | None -> ()
  | Some cb ->
    let key = (pkt.Netsim.Packet.src, d.msg_id) in
    let seen =
      (match Hashtbl.find_opt t.partial key with Some s -> s | None -> 0)
      + d.len
    in
    if seen >= d.total then begin
      Hashtbl.remove t.partial key;
      t.completed <- t.completed + 1;
      cb ~src:pkt.Netsim.Packet.src ~msg_id:d.msg_id ~size:d.total
    end
    else Hashtbl.replace t.partial key seen

(* Datagrams are consumed on arrival, so the packet goes straight
   back to the pool for reuse. *)
let claim t pkt =
  match pkt.Netsim.Packet.payload with
  | Udp d ->
    handle t d pkt;
    Netsim.Packet.release t.pool pkt;
    true
  | _ -> false

let attach host =
  let node = Netsim.Host.node host in
  let t =
    { u_node = node; u_sim = Netsim.Node.sim node;
      pool = Netsim.Host.pool host; listeners = Hashtbl.create 4;
      partial = Hashtbl.create 32; next_msg = 0; rx_bytes = 0;
      completed = 0; tx_msgs = 0 }
  in
  Netsim.Host.register host ~name:"udp" (claim t);
  t

let listen t ~port cb = Hashtbl.replace t.listeners port cb

let send t ~dst ~dst_port ~size =
  let msg_id = t.next_msg in
  t.next_msg <- t.next_msg + 1;
  let src = Netsim.Node.addr t.u_node in
  let src_port = 20_000 in
  let flow_hash = Netsim.Packet.flow_hash_of ~src ~dst ~src_port ~dst_port in
  let rec fragment offset =
    if offset < size then begin
      let len = min mtu_payload (size - offset) in
      let d = { dst_port; msg_id; len; total = size } in
      let pkt =
        Netsim.Packet.recycle ~flow_hash ~payload:(Udp d)
          t.pool ~src ~dst ~size:(header_bytes + len) ()
      in
      Netsim.Node.send t.u_node pkt;
      fragment (offset + len)
    end
  in
  fragment 0;
  msg_id

let bytes_received t = t.rx_bytes

module Messaging = struct
  type nonrec t = t

  let id = "udp"

  let node t = t.u_node

  let listen t ~port ?on_data ?on_message () =
    listen t ~port (fun ~src ~msg_id:_ ~size ->
        (match on_data with Some f -> f size | None -> ());
        match on_message with
        | Some f ->
          f
            { Netsim.Transport_intf.msg_src = src;
              msg_src_port = 20_000;
              msg_size = size;
              (* No handshake or acks: per-message latency is not
                 observable at the receiver. *)
              msg_latency = 0 }
        | None -> ())

  (* UDP blasts at line rate with no acknowledgements, so "complete"
     is modelled as the sender-side drain time at the uplink rate. *)
  let send_message t ~dst ~dst_port ?tc:_ ?on_complete ~size () =
    t.tx_msgs <- t.tx_msgs + 1;
    ignore (send t ~dst ~dst_port ~size);
    match on_complete with
    | Some f ->
      let rate = Netsim.Link.rate (Netsim.Node.uplink t.u_node) in
      let dt = max 1 (Engine.Time.tx_time ~bytes:size ~rate) in
      ignore (Engine.Sim.after t.u_sim dt (fun () -> f dt))
    | None -> ()

  let stream t ~dst ~dst_port ?tc () =
    let chunk = 1_000_000 in
    let rec next () =
      send_message t ~dst ~dst_port ?tc ~on_complete:(fun _ -> next ())
        ~size:chunk ()
    in
    next ()

  let stats t =
    { Netsim.Transport_intf.tx_messages = t.tx_msgs;
      rx_messages = t.completed;
      rx_bytes = t.rx_bytes;
      retransmits = 0 }
end
