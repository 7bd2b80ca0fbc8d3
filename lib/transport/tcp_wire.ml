type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  payload : int;
  syn : bool;
  fin : bool;
  is_ack : bool;
  ece : bool;
  probe : bool;
  rwnd : int;
}

type Netsim.Packet.proto += Tcp of t

let header_bytes = 40

let packet pool ~src ~dst ~entity seg =
  let flow_hash =
    Netsim.Packet.flow_hash_of ~src ~dst ~src_port:seg.src_port
      ~dst_port:seg.dst_port
  in
  Netsim.Packet.take pool ~entity ~prio:0 ~flow_hash ~payload:(Tcp seg) ~src
    ~dst
    ~size:(header_bytes + seg.payload)
