type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;
  mutable ack : int;
  mutable payload : int;
  mutable syn : bool;
  mutable fin : bool;
  mutable is_ack : bool;
  mutable ece : bool;
  mutable probe : bool;
  mutable rwnd : int;
}

type Netsim.Packet.proto += Tcp of t

let header_bytes = 40

let fill t ~src_port ~dst_port ~seq ~ack ~payload ~syn ~fin ~is_ack ~ece
    ~probe ~rwnd =
  t.src_port <- src_port;
  t.dst_port <- dst_port;
  t.seq <- seq;
  t.ack <- ack;
  t.payload <- payload;
  t.syn <- syn;
  t.fin <- fin;
  t.is_ack <- is_ack;
  t.ece <- ece;
  t.probe <- probe;
  t.rwnd <- rwnd

let blank () =
  { src_port = 0; dst_port = 0; seq = 0; ack = 0; payload = 0; syn = false;
    fin = false; is_ack = false; ece = false; probe = false; rwnd = 0 }

let segment = function
  | Tcp seg -> seg
  | _ -> invalid_arg "Tcp_wire.segment: not a TCP payload"

let packet pool ~src ~dst ~entity payload =
  let seg = segment payload in
  let flow_hash =
    Netsim.Packet.flow_hash_of ~src ~dst ~src_port:seg.src_port
      ~dst_port:seg.dst_port
  in
  Netsim.Packet.take pool ~entity ~prio:0 ~flow_hash ~payload ~src ~dst
    ~size:(header_bytes + seg.payload)
