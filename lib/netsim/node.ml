module Itbl = Hashtbl.Make (Int)

type t = {
  sim : Engine.Sim.t;
  node_pool : Packet.pool;
  node_name : string;
  node_addr : Packet.addr;
  mutable link : Link.t option;
  routes : Link.t Itbl.t;
  mutable handle_packet : (Packet.t -> unit) option;
}

let create pool ~name ~addr =
  { sim = Packet.pool_sim pool; node_pool = pool; node_name = name;
    node_addr = addr; link = None; routes = Itbl.create 4;
    handle_packet = None }

let addr t = t.node_addr
let name t = t.node_name
let sim t = t.sim
let pool t = t.node_pool

let attach t link = t.link <- Some link

let add_route t dst link = Itbl.replace t.routes dst link

let uplink t =
  match t.link with
  | Some l -> l
  | None -> failwith ("Node " ^ t.node_name ^ ": not attached")

(* No option box per send: a fabric host has no route entries and
   never reaches the table, and a miss is the exception path. *)
let link_for t dst =
  if Itbl.length t.routes = 0 then uplink t
  else
    match Itbl.find t.routes dst with
    | l -> l
    | exception Not_found -> uplink t

let send t p = Link.send (link_for t p.Packet.dst) p

let receive t p =
  match t.handle_packet with
  | Some h -> h p
  | None -> ()

let set_handler t h = t.handle_packet <- Some h

let has_handler t = Option.is_some t.handle_packet

let handler t = t.handle_packet
