(** A host: node + registered transport stacks.

    The one way to put transports on a node.  [create] takes over the
    node's packet handler; each transport's [attach] registers a claim
    function that inspects a packet and returns whether it handled it.
    Stacks are offered every inbound packet in registration order, so
    where two stacks could claim the same packet the one registered
    first wins.  A node that carries several stacks shares one host.

    Packet ownership: every stack sends packets taken from the node's
    pool ({!Node.pool}, {!Packet.take}).  When a claim answers [true],
    the host releases the packet, payload and all, into that pool for
    a later send to refill.  {!Topology} shares one pool among every
    host of a simulator, so a packet released here
    may refill any of those hosts' next sends.  So a claim must keep
    no reference to the packet or its payload after it returns.  A
    claim answering [false] must leave the packet as it found it, for
    the next stack. *)

type t

val create : Node.t -> t
(** Take over the node's packet handler; stacks send from the node's
    pool.
    @raise Invalid_argument if the node already has a handler (a
    second host on one node would unplug every stack on the first). *)

val register : t -> name:string -> (Packet.t -> bool) -> unit

val node : t -> Node.t
val addr : t -> Packet.addr

val unclaimed : t -> int
(** Inbound packets no registered stack claimed. *)

val stacks : t -> string list
