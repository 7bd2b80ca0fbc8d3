(* A host: a node plus a registry of transport stacks, releasing what
   they claim into the node's packet pool.  The host owns the node's
   packet handler and offers each inbound packet to the registered
   stacks in registration order.  It is the only way a stack receives
   packets. *)

type entry = { stk_name : string; claim : Packet.t -> bool }

type t = {
  h_node : Node.t;
  h_pool : Packet.pool;  (* [Node.pool h_node], one load per release *)
  mutable h_stacks : entry list;
  mutable h_unclaimed : int;
}

(* Top level, not a closure over [pkt]: a dispatch allocates nothing.
   Released once handled, so no send while handling reuses the record. *)
let rec offer t pkt = function
  | [] -> t.h_unclaimed <- t.h_unclaimed + 1
  | e :: rest ->
    if e.claim pkt then Packet.release t.h_pool pkt else offer t pkt rest

let create node =
  if Node.has_handler node then
    invalid_arg "Host.create: the node already has a packet handler";
  let t =
    { h_node = node; h_pool = Node.pool node; h_stacks = []; h_unclaimed = 0 }
  in
  Node.set_handler node (fun pkt -> offer t pkt t.h_stacks);
  t

let register t ~name claim =
  (* simlint: allow H101 — a stack registers once, at setup *)
  t.h_stacks <- t.h_stacks @ [ { stk_name = name; claim } ]

let node t = t.h_node
let addr t = Node.addr t.h_node
let unclaimed t = t.h_unclaimed
let stacks t = List.map (fun e -> e.stk_name) t.h_stacks
