module Itbl = Hashtbl.Make (Int)

type t = {
  sim : Engine.Sim.t;
  node_name : string;
  node_addr : Packet.addr;
  mutable link : Link.t option;
  routes : Link.t Itbl.t;
  mutable handle_packet : (Packet.t -> unit) option;
}

let create sim ~name ~addr =
  { sim; node_name = name; node_addr = addr; link = None;
    routes = Itbl.create 4; handle_packet = None }

let addr t = t.node_addr
let name t = t.node_name
let sim t = t.sim

let attach t link = t.link <- Some link

let add_route t dst link = Itbl.replace t.routes dst link

let uplink t =
  match t.link with
  | Some l -> l
  | None -> failwith ("Node " ^ t.node_name ^ ": not attached")

let link_for t dst =
  match Itbl.find_opt t.routes dst with
  | Some l -> l
  | None -> uplink t

let send t p = Link.send (link_for t p.Packet.dst) p

let receive t p =
  match t.handle_packet with
  | Some h -> h p
  | None -> ()

let set_handler t h = t.handle_packet <- Some h

let has_handler t = Option.is_some t.handle_packet

let handler t = t.handle_packet
