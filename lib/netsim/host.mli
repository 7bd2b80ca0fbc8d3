(** A host: node + registered transport stacks + shared packet pool.

    The one way to put transports on a node.  [create] takes over the
    node's packet handler; each transport's [attach] registers a claim
    function that inspects a packet and returns whether it handled it.
    Stacks are offered every inbound packet in registration order, so
    where two stacks could claim the same packet the one registered
    first wins.  A node that carries several stacks shares one host. *)

type t

val create : Node.t -> t
(** Take over the node's packet handler, with a fresh packet pool.
    @raise Invalid_argument if the node already has a handler (a
    second host on one node would unplug every stack on the first). *)

val register : t -> name:string -> (Packet.t -> bool) -> unit

val node : t -> Node.t
val addr : t -> Packet.addr
val pool : t -> Packet.pool

val unclaimed : t -> int
(** Inbound packets no registered stack claimed. *)

val stacks : t -> string list
