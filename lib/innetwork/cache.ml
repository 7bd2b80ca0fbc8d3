type t = {
  sw : Netsim.Switch.t; (* its pool makes the crafted acks and replies *)
  server : Netsim.Packet.addr;
  server_port : int;
  client_port_of : Netsim.Packet.addr -> int;
  capacity : int;
  entries : (int, int) Hashtbl.t; (* key -> value size *)
  lru : int Queue.t; (* keys, oldest first; may hold stale entries *)
  mutable next_msg : int;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_learned : int;
}

(* Payload bytes per packet of a crafted reply. *)
let mtu = 1440

let evict_if_needed t =
  while Hashtbl.length t.entries > t.capacity do
    match Queue.take_opt t.lru with
    | Some key -> Hashtbl.remove t.entries key
    | None -> ()
  done

let remember t ~key ~size =
  if not (Hashtbl.mem t.entries key) then begin
    Hashtbl.replace t.entries key size;
    Queue.push key t.lru;
    evict_if_needed t
  end

let put t ~key ~size = remember t ~key ~size

(* Craft a reply message as the backend would, with message ids from a
   range the real backend never uses: the top quarter of the header's
   u32 id space. *)
let inject_reply t ~client ~client_app_port ~key ~size =
  let msg_id = 0xC000_0000 + t.next_msg in
  t.next_msg <- t.next_msg + 1;
  let npkts = (size + mtu - 1) / mtu in
  let port = t.client_port_of client in
  for pkt_num = 0 to npkts - 1 do
    let pkt_len =
      if pkt_num < npkts - 1 then mtu else size - (mtu * (npkts - 1))
    in
    let header =
      Mtp.Wire.data ~pri:0 ~tc:0 ~cookie:Kvs.op_reply ~cookie2:key ~exclude:[]
        ~src_port:t.server_port ~dst_port:client_app_port ~msg_id
        ~msg_len:size ~msg_pkts:npkts ~pkt_num ~pkt_offset:(pkt_num * mtu)
        ~pkt_len
    in
    let pkt =
      Mtp.Wire.packet (Netsim.Switch.pool t.sw) ~src:t.server ~dst:client
        ~entity:0 (Mtp.Wire.Mtp header)
    in
    Netsim.Switch.inject t.sw ~port pkt
  done

let install sw ~server ~server_port ~client_port_of ?(capacity = 64) () =
  let t =
    { sw; server; server_port; client_port_of; capacity;
      entries = Hashtbl.create 64; lru = Queue.create (); next_msg = 0;
      n_hits = 0; n_misses = 0; n_learned = 0 }
  in
  Netsim.Switch.add_ingress_hook sw (fun pkt ->
      match pkt.Netsim.Packet.payload with
      | Mtp.Wire.Mtp h when not h.Mtp.Wire.is_ack ->
        if
          pkt.Netsim.Packet.dst = server
          && h.Mtp.Wire.dst_port = server_port
          && h.Mtp.Wire.cookie = Kvs.op_get
        then begin
          let key = h.Mtp.Wire.cookie2 in
          match Hashtbl.find_opt t.entries key with
          | Some size ->
            t.n_hits <- t.n_hits + 1;
            (* Answer directly and absorb the request — but first ACK
               the request packet so the client's sender state
               completes (the switch terminates the message). *)
            let ack =
              Mtp.Wire.ack
                ~sack:
                  [ { Mtp.Wire.ref_msg = h.Mtp.Wire.msg_id;
                      ref_pkt = h.Mtp.Wire.pkt_num } ]
                ~nack:[] ~tc:0 ~src_port:h.Mtp.Wire.dst_port
                ~dst_port:h.Mtp.Wire.src_port ~msg_id:h.Mtp.Wire.msg_id
                ~ack_path_feedback:h.Mtp.Wire.path_feedback
            in
            Netsim.Switch.inject t.sw
              ~port:(t.client_port_of pkt.Netsim.Packet.src)
              (Mtp.Wire.packet (Netsim.Switch.pool sw) ~src:server
                 ~dst:pkt.Netsim.Packet.src ~entity:0 (Mtp.Wire.Mtp ack));
            inject_reply t ~client:pkt.Netsim.Packet.src
              ~client_app_port:h.Mtp.Wire.src_port ~key ~size;
            Netsim.Switch.Absorb
          | None ->
            t.n_misses <- t.n_misses + 1;
            Netsim.Switch.Continue
        end
        else begin
          (* Learn from replies streaming back through us. *)
          if
            pkt.Netsim.Packet.src = server
            && h.Mtp.Wire.src_port = server_port
            && h.Mtp.Wire.cookie = Kvs.op_reply
            && h.Mtp.Wire.pkt_num = 0
          then begin
            t.n_learned <- t.n_learned + 1;
            remember t ~key:h.Mtp.Wire.cookie2 ~size:h.Mtp.Wire.msg_len
          end;
          Netsim.Switch.Continue
        end
      | _ -> Netsim.Switch.Continue);
  t

let hits t = t.n_hits
let misses t = t.n_misses
let learned t = t.n_learned
let occupancy t = Hashtbl.length t.entries
