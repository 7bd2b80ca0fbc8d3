type t = {
  sim : Engine.Sim.t;
  node_name : string;
  node_addr : Packet.addr;
  mutable link : Link.t option;
  routes : (Packet.addr, Link.t) Hashtbl.t;
  mutable handle_packet : (Packet.t -> unit) option;
}

let create sim ~name ~addr =
  { sim; node_name = name; node_addr = addr; link = None;
    routes = Hashtbl.create 4; handle_packet = None }

let addr t = t.node_addr
let name t = t.node_name
let sim t = t.sim

let attach t link = t.link <- Some link

let add_route t dst link = Hashtbl.replace t.routes dst link

let uplink t =
  match t.link with
  | Some l -> l
  | None -> failwith ("Node " ^ t.node_name ^ ": not attached")

let link_for t dst =
  match Hashtbl.find_opt t.routes dst with
  | Some l -> l
  | None -> uplink t

let send t p = Link.send (link_for t p.Packet.dst) p

let receive t p =
  match t.handle_packet with
  | Some h -> h p
  | None -> ()

(* Batch twin of [receive], for wiring as a link's burst destination:
   drains a whole delivery chain in one call.  The handler is re-read
   per packet so a handler installed mid-burst takes effect exactly as
   it would packet-by-packet. *)
let receive_burst t ~pull =
  let continue = ref true in
  while !continue do
    match pull () with
    | Some p -> receive t p
    | None -> continue := false
  done

let set_handler t h = t.handle_packet <- Some h

let has_handler t = Option.is_some t.handle_packet

let handler t = t.handle_packet
