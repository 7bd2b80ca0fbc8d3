(** End hosts.

    A host has an address, one uplink (all topologies here are
    edge-attached), and one receive handler.  Transports never set the
    handler themselves: {!Host.create} installs a dispatcher that
    offers each packet to the stacks attached to it.  A raw handler
    suits traffic with no transport (bare packet sinks in tests and
    benches). *)

type t

val create : Packet.pool -> name:string -> addr:Packet.addr -> t
(** A node in the pool's simulator.  Its stacks send from that pool and
    its {!Host} releases claimed packets into it; {!Topology} hands one
    pool to every host it builds in a simulator. *)

val addr : t -> Packet.addr
val name : t -> string
val sim : t -> Engine.Sim.t

val pool : t -> Packet.pool
(** The pool given at {!create}. *)

val attach : t -> Link.t -> unit
(** Set the host's default uplink. *)

val add_route : t -> Packet.addr -> Link.t -> unit
(** Multi-homed hosts (e.g. a proxy between two networks) can pin the
    egress link for a destination; {!send} falls back to the default
    uplink otherwise. *)

val uplink : t -> Link.t
(** @raise Failure if the host is not attached. *)

val send : t -> Packet.t -> unit
(** Transmit on the route for [p.dst], or the default uplink. *)

val receive : t -> Packet.t -> unit
(** Deliver a packet to the host's current handler (dropped if none
    is installed). *)

val set_handler : t -> (Packet.t -> unit) -> unit

val has_handler : t -> bool

val handler : t -> (Packet.t -> unit) option
(** The currently installed handler, for wrapping it (say, to time a
    host's receive path). *)
