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
    exactly like its single-sim counterpart. *)

type t

type conduit =
  src:int ->
  dst:int ->
  name:string ->
  rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  ?qdisc:Qdisc.t ->
  deliver:(Packet.t -> unit) ->
  unit ->
  Link.t
(** How a world realises a link from partition [src] to partition
    [dst]: the returned link transmits in [src], and each packet it
    delivers reaches [deliver] in [dst] [delay] later. *)

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

val host : ?part:int -> t -> string -> Node.t
(** Fresh host with a unique address, in partition [part] (default
    0). *)

val switch : ?part:int -> t -> string -> Switch.t

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
  ch_client_to_proxy : Link.t;
  ch_proxy_to_server : Link.t;
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
    leaf→spine link (spine→leaf and host links use defaults). *)

val fabric_salt : int -> int
(** Deterministic nonzero ECMP salt for fabric switch ordinal [i]
    (see {!Routing.create}), shared by {!fat_tree} and
    {!multi_leaf_spine}. *)

type fat_tree = {
  ft_k : int;
  ft_base : Packet.addr;  (** Address of host 0. *)
  ft_hosts : Node.t array;
      (** In address order: host [i] has address [ft_base + i] and
          lives in pod [i / (k²/4)], edge [(i mod k²/4) / (k/2)]. *)
  ft_edges : Switch.t array;  (** [pod·k/2 + e]. *)
  ft_aggs : Switch.t array;  (** [pod·k/2 + a]. *)
  ft_cores : Switch.t array;  (** [(k/2)²] of them. *)
  ft_edge_up : Link.t array array;
      (** [ft_edge_up.(edge).(a)]: edge→agg uplink. *)
  ft_agg_up : Link.t array array;
      (** [ft_agg_up.(agg).(j)]: agg→core uplink (core [a·k/2 + j]). *)
  ft_edge_routes : Routing.t array;
  ft_agg_routes : Routing.t array;
  ft_core_routes : Routing.t array;
}

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
(** Canonical k-ary fat-tree (k even): k pods of k/2 edge + k/2 agg
    switches, (k/2)² cores, k³/4 hosts.  All routing is by address
    {e interval} ({!Routing.add_range}): remote destinations at an
    edge are two ranges sharing the k/2 agg uplinks, aggs own their
    pod's edge blocks downward and split the (k/2) core uplinks by
    range upward, cores own whole pods — so table state per switch is
    O(k), not O(hosts).  Every tier forwards with salted
    {!Routing.ecmp} ({!fabric_salt}), giving (k/2)² distinct
    inter-pod paths across flows.  [uplink_qdisc] builds each
    switch-to-switch upward queue, [host_qdisc] each edge→host
    downlink queue (incast bottleneck). *)

type multi_tier = {
  mt_pods : int;
  mt_leaves_per_pod : int;
  mt_base : Packet.addr;
  mt_hosts : Node.t array;  (** In address order, pod-major. *)
  mt_leaves : Switch.t array;  (** [pod·leaves + l]. *)
  mt_spines : Switch.t array;  (** [pod·spines + s]. *)
  mt_supers : Switch.t array;
  mt_leaf_routes : Routing.t array;
  mt_spine_routes : Routing.t array;
  mt_super_routes : Routing.t array;
}

val multi_leaf_spine :
  t ->
  pods:int ->
  leaves:int ->
  spines:int ->
  supers:int ->
  hosts_per_leaf:int ->
  host_rate:Engine.Time.rate ->
  fabric_rate:Engine.Time.rate ->
  delay:Engine.Time.t ->
  unit ->
  multi_tier
(** Generalized multi-tier Clos: [pods] two-tier leaf-spine blocks
    whose spines all mesh with [supers] super-spines.  [pods = 1] with
    [supers = 0] degenerates to a two-tier leaf-spine built on
    interval routes.  Like {!fat_tree}, every tier forwards with
    salted {!Routing.ecmp} over {!Routing.add_range} intervals, so
    state per switch is O(ports), and inter-pod flows fan out over
    spines × supers paths.  Every link keeps its default queue. *)
