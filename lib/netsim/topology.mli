(** Topology construction: address allocation, placement, duplex
    wiring helpers, and the prebuilt networks used by the paper's
    experiments.

    One builder serves a single simulator and a partitioned world
    alike.  A topology owns one simulator per partition; every
    prebuilt network places its devices with {!place} (partition 0
    when there is only one) and wires every link so that it is a plain
    {!Link} when both ends share a partition and the world's
    {!conduit} when they do not.  Names, addresses, routes and ECMP
    salts never depend on the cut, so a partitioned build forwards
    exactly like its single-sim counterpart.

    A topology also owns one {!Packet.pool} per simulator and gives it
    to every host, switch and link it builds there ({!Node.pool},
    {!Switch.pool}): the stacks of every host of a simulator send from
    that pool, their {!Host}s release claimed packets into it, and its
    links and switches release what they drop into it. *)

type t

type conduit =
  Packet.pool ->
  dst:int ->
  name:string ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?qdisc:Qdisc.t ->
  deliver:(Packet.t -> unit) ->
  unit ->
  Link.t
(** How a world realises a link from the partition of a pool to
    partition [dst]: the returned link transmits in the pool's
    simulator and drops into the pool, and each packet it delivers
    reaches [deliver] in [dst] [delay] later. *)

val create : Engine.Sim.t -> t
(** A single-sim topology: one partition, no conduits. *)

val partitioned : Engine.Sim.t array -> conduit:conduit -> t
(** One partition per simulator; cross-partition links come from
    [conduit].  {!Partition.create} makes these. *)

val nparts : t -> int

val sim : ?part:int -> t -> Engine.Sim.t
(** Partition [part]'s simulator (default 0). *)

val part : t -> Engine.Sim.t -> int
(** The partition a simulator belongs to — e.g. of [Link.sim l] or
    [Switch.sim sw].
    @raise Invalid_argument for a foreign simulator. *)

val place : t -> groups:int -> int -> int
(** [place t ~groups g]: the partition of group [g mod groups] when a
    network has [groups] natural groups (a leaf with its hosts, a
    pod, one side of a dumbbell).  Groups go to partitions in
    contiguous blocks, so [groups = nparts] maps group [g] to
    partition [g], and a single partition maps everything to 0.
    Shared switches (spines, cores) are placed as group [i]. *)

(** {1 Devices}

    Every host, switch and link is made by {!host}, {!switch} or a
    wiring helper (plain link and conduit alike) and listed in
    creation order, so host [i] has address [i]. *)

val host : ?part:int -> t -> string -> Node.t
(** Fresh host with the next address, in partition [part] (default
    0), sending from and releasing into that partition's pool. *)

val switch : ?part:int -> t -> string -> Switch.t
val hosts : t -> Node.t array
val switches : t -> Switch.t array

val links : t -> Link.t array
(** A wiring helper makes its forward direction first: a host's uplink
    before its downlink. *)

(** {1 Wiring} *)

val wire_host_to_switch :
  t ->
  Node.t ->
  Switch.t ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?down_qdisc:Qdisc.t ->
  unit ->
  int
(** Duplex host/switch attachment.  The uplink becomes the host's
    default link; returns the switch port of the {e downlink} (towards
    the host) for routing. *)

val wire_switch_pair :
  t ->
  Switch.t ->
  Switch.t ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?ab_qdisc:Qdisc.t ->
  unit ->
  int * int * Link.t * Link.t
(** Duplex switch/switch wiring: [(port_at_a_towards_b,
    port_at_b_towards_a, link_ab, link_ba)]. *)

val wire_host_pair :
  t ->
  Node.t ->
  Node.t ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?ab_qdisc:Qdisc.t ->
  ?ba_qdisc:Qdisc.t ->
  unit ->
  Link.t * Link.t
(** Direct duplex host/host wiring; installs per-destination routes on
    both hosts (so multi-homed hosts keep existing attachments). *)

(** {1 Prebuilt networks} *)

type dumbbell = {
  db_senders : Node.t array;
  db_receivers : Node.t array;
  db_left : Switch.t;
  db_right : Switch.t;
  db_bottleneck : Link.t;  (** left → right direction. *)
}

val dumbbell :
  t ->
  n:int ->
  edge_rate:Engine.Time.rate ->
  bottleneck_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?bottleneck_qdisc:Qdisc.t ->
  unit ->
  dumbbell
(** [n] senders and [n] receivers joined by two switches and one
    bottleneck; destination routing installed on both switches
    (sender [i] talks to receiver [i] and vice versa). *)

type two_path = {
  tp_src : Node.t;
  tp_dst : Node.t;
  tp_ingress : Switch.t;
  tp_egress : Switch.t;
  tp_link_a : Link.t;  (** ingress → egress, path A. *)
  tp_link_b : Link.t;  (** ingress → egress, path B. *)
  tp_port_a : int;  (** at ingress. *)
  tp_port_b : int;
  tp_routes : Routing.t;
      (** Ingress table with both ports registered for [tp_dst]; the
          default forwarding is [Routing.static] (path A) — replace it
          with [ecmp]/[spray]/custom alternation per experiment. *)
}

val two_path :
  t ->
  rate_a:Engine.Time.rate ->
  rate_b:Engine.Time.rate ->
  delay_a:Engine.Time.t ->
  delay_b:Engine.Time.t ->
  edge_rate:Engine.Time.rate ->
  ?qdisc_a:Qdisc.t ->
  ?qdisc_b:Qdisc.t ->
  unit ->
  two_path
(** One sender, one receiver, two parallel unidirectional paths between
    an ingress and an egress switch.  The reverse (ACK) direction uses
    a dedicated high-rate link so data-path experiments are not
    perturbed by ACK queueing. *)

type chain = {
  ch_client : Node.t;
  ch_proxy : Node.t;
  ch_server : Node.t;
}

val proxy_chain :
  t ->
  front_rate:Engine.Time.rate ->
  back_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?back_qdisc:Qdisc.t ->
  unit ->
  chain
(** client ↔ proxy at [front_rate], proxy ↔ server at [back_rate] —
    the paper's Fig. 2 rate-mismatch setup. *)

type star = {
  st_clients : Node.t array;
  st_server : Node.t;
  st_switch : Switch.t;
  st_server_port : int;
}

val star :
  t ->
  n:int ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?server_qdisc:Qdisc.t ->
  unit ->
  star
(** [n] clients and one server on a single switch with destination
    routing installed — the incast/offload playground. *)

type leaf_spine = {
  ls_hosts : Node.t array array;  (** [ls_hosts.(leaf).(i)]. *)
  ls_leaves : Switch.t array;
  ls_spines : Switch.t array;
  ls_uplinks : Link.t array array;  (** [ls_uplinks.(leaf).(spine)]. *)
  ls_leaf_routes : Routing.t array;
      (** Per-leaf table: local hosts on their ports, every remote host
          registered once per spine uplink (so [Routing.ecmp] spreads
          across spines). *)
}

val leaf_spine :
  t ->
  leaves:int ->
  spines:int ->
  hosts_per_leaf:int ->
  host_rate:Engine.Time.rate ->
  fabric_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?uplink_qdisc:(unit -> Qdisc.t) ->
  unit ->
  leaf_spine
(** A two-tier Clos: every leaf connects to every spine at
    [fabric_rate].  Leaves forward with {!Routing.ecmp} by default
    (override via [ls_leaf_routes]); spines route statically to the
    destination leaf.  [uplink_qdisc] creates the queue for each
    leaf→spine link (spine→leaf and host links use defaults).  Raises
    [Invalid_argument] unless every tier is positive. *)

val fabric_salt : int -> int
(** Deterministic nonzero ECMP salt for fabric switch ordinal [i]
    (see {!Routing.create}), shared by every {!clos} tier: edges
    first, then aggs, then cores. *)

type fat_tree = {
  ft_base : Packet.addr;  (** Address of host 0. *)
  ft_hosts : Node.t array;
      (** In address order: host [i] has address [ft_base + i] and
          lives in pod [i / (leaves·hosts_per_leaf)], edge
          [(i mod leaves·hosts_per_leaf) / hosts_per_leaf]. *)
  ft_edges : Switch.t array;  (** [pod·leaves + e]. *)
  ft_aggs : Switch.t array;  (** [pod·spines + a]. *)
  ft_cores : Switch.t array;  (** [supers] of them; none for one pod. *)
  ft_edge_routes : Routing.t array;
  ft_agg_routes : Routing.t array;
  ft_core_routes : Routing.t array;
}

val clos :
  t ->
  pods:int ->
  leaves:int ->
  spines:int ->
  supers:int ->
  hosts_per_leaf:int ->
  host_rate:Engine.Time.rate ->
  fabric_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?uplink_qdisc:(unit -> Qdisc.t) ->
  ?host_qdisc:(unit -> Qdisc.t) ->
  unit ->
  fat_tree
(** Three-tier Clos: [pods] pods of [leaves] edge and [spines] agg
    switches, [hosts_per_leaf] hosts per edge, and [supers] cores
    split into [spines] planes of [m = supers / spines]: agg [a] of
    every pod meshes with cores [a·m .. a·m + m - 1], so each core
    has one port per pod.  One pod builds no core (and ignores
    [supers]): a two-tier leaf-spine on interval routes.  All routing
    is by address {e interval} ({!Routing.add_range}): remote
    destinations at an edge are two ranges sharing its agg uplinks,
    aggs own their pod's edge blocks downward and split their [m]
    core uplinks by range upward, cores own whole pods — so table
    state per switch is O(ports), not O(hosts).  Every tier forwards
    with salted {!Routing.ecmp} ({!fabric_salt}), giving [supers]
    distinct inter-pod paths across flows.  [uplink_qdisc] builds
    each switch-to-switch upward queue, [host_qdisc] each edge→host
    downlink queue (incast bottleneck).  A pod's devices share a
    partition; core [c] lives with pod [c mod pods].  Raises
    [Invalid_argument] unless every tier is positive and, with more
    than one pod, [supers] is a positive multiple of [spines]. *)

val fat_tree :
  t ->
  k:int ->
  host_rate:Engine.Time.rate ->
  fabric_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?uplink_qdisc:(unit -> Qdisc.t) ->
  ?host_qdisc:(unit -> Qdisc.t) ->
  unit ->
  fat_tree
(** Canonical k-ary fat-tree (k even, [Invalid_argument] otherwise):
    {!clos} with k pods of k/2 edges, k/2 aggs and k/2 hosts per
    edge, and (k/2)² cores — k³/4 hosts and (k/2)² inter-pod paths. *)
