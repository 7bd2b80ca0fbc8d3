(** Domain partitioning for conservative parallel simulation of
    {e one} scenario.

    A partitioned world is N single-threaded worlds (private [Sim]s)
    sharing one {!Topology}: its builders place every device in a
    partition and wire each cross-partition direction as a
    {e conduit} — an edge whose qdisc and serialization live in the
    source partition and whose propagation delay is paid across the
    epoch barrier.  Driven by [Runner.Epoch.run] with lookahead = the
    minimum conduit delay, the result is byte-identical for any
    [jobs] value; see DESIGN.md "Conservative parallel DES" for the
    argument. *)

type t

val create : ?seed:int -> nparts:int -> unit -> t
(** [nparts] worlds with per-partition [Sim] seeds derived from
    [seed] (default 42) via [Engine.Rng.derive]. *)

val sim : t -> int -> Engine.Sim.t
(** Partition [p]'s simulator. *)

val topology : t -> Topology.t
(** The world's topology: build any prebuilt network on it, or place
    devices by hand with [Topology.host ~part]/[Topology.switch ~part]
    and the [Topology.wire_*] helpers.  Cross-partition links become
    conduits; their delay must be positive, since it bounds the epoch
    lookahead.  Ownership of a packet moves to the destination
    partition with it. *)

val lookahead : t -> Engine.Time.t
(** Minimum conduit delay — the epoch window length.
    @raise Invalid_argument if the world has no conduit. *)

val run : ?jobs:int -> until:Engine.Time.t -> t -> unit
(** Drive the whole world to [until] with [Runner.Epoch.run]:
    lookahead-sized windows, [jobs] workers, canonical exchange at
    every barrier.  [jobs = 1] (default) is the sequential reference
    — byte-identical state to any other [jobs] value.  With telemetry
    on, each partition emits into a staged context of its own
    ([Telemetry.Ctx.stage]), absorbed in partition order after every
    window, so the export too is the same for any [jobs]. *)

(** {1 Leaf-per-partition Clos} *)

type leaf_spine = {
  pls_world : t;
  pls_hosts : Node.t array array;  (** [pls_hosts.(leaf).(i)]. *)
  pls_leaves : Switch.t array;
  pls_spines : Switch.t array;
  pls_links : Link.t array;
      (** [Topology.links] of the world: creation order, so per leaf,
          host up/down pairs; then the fabric mesh in (leaf, spine)
          order, up then down. *)
  pls_link_part : int array;  (** Owning partition of each link in {!pls_links}. *)
}

val leaf_spine :
  ?seed:int ->
  leaves:int ->
  spines:int ->
  hosts_per_leaf:int ->
  host_rate:Engine.Time.rate ->
  fabric_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?uplink_qdisc:(unit -> Qdisc.t) ->
  unit ->
  leaf_spine
(** [Topology.leaf_spine] on a world of one partition per leaf (hosts
    + leaf switch), spine [s] with leaf [s mod leaves]: every fabric
    direction that crosses partitions is a conduit with the full
    [delay], so the lookahead equals [delay].  Requires
    [leaves >= 2]. *)
