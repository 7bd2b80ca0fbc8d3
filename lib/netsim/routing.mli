(** Forwarding helpers for switches.

    A routing table maps destination addresses to one or more egress
    ports; the selectors below turn the table into a forwarding
    function with different multipath behaviours.

    Representation: host addresses are dense ints (allocated by
    {!Topology}), so the table is a dense address-indexed array and
    the per-packet lookup is a bounds-checked array index — no
    hashing, no option allocation, and zero allocation in steady state
    (live-port arrays are refiltered lazily after a control-plane
    change, not per packet, and verdicts are the shared blocks of
    {!Switch.forward}).  Contiguous address ranges registered via
    {!add_range} share one port-set entry, so interval-routed fabrics
    keep O(ports) state per switch regardless of host count. *)

type t

val create : ?salt:int -> unit -> t
(** [salt] (default 0) decorrelates {!ecmp} across tables: with a
    nonzero salt the selector hashes [(flow_hash, salt)] instead of
    using [flow_hash mod n] directly, so consecutive hops of a
    multi-tier fabric pick independent ports for the same flow.  The
    default keeps the historical raw [flow_hash mod n] behaviour. *)

val add : t -> Packet.addr -> int -> unit
(** Register an egress port for a destination.  Multiple registrations
    make the destination multipath.  Amortized O(1) per call.
    Raises [Invalid_argument] on a negative address/port or when the
    address is already covered by an {!add_range} interval. *)

val add_range : t -> lo:Packet.addr -> hi:Packet.addr -> int -> unit
(** Register an egress port for every destination in [lo..hi]
    (inclusive) through one shared entry: repeated calls with the
    identical interval append further ports (multipath), and all
    addresses of the interval cost one entry.  Raises
    [Invalid_argument] if the interval overlaps any per-address route
    or any *different* interval — builders must carve disjoint
    ranges. *)

val ports_for : t -> Packet.addr -> int array
(** Live ports for a destination: registrations minus removed ports
    (empty when unknown).  The returned array is the table's internal
    live set — treat it as read-only. *)

val registered_ports_for : t -> Packet.addr -> int array
(** All registrations for a destination, ignoring removals (fresh
    copy; control-plane/diagnostic use). *)

val remove_port : t -> int -> unit
(** Withdraw an egress port from every destination, as a routing
    reconvergence would after a link failure is detected.  Selectors
    stop returning it until {!restore_port}.  Idempotent, O(1): the
    per-destination live sets refilter lazily on next lookup. *)

val restore_port : t -> int -> unit
(** Re-announce a previously removed port.  Idempotent. *)

val port_removed : t -> int -> bool

val static : t -> Packet.t -> Switch.action
(** Always the first registered port; [Drop] when unknown. *)

val ecmp : t -> Packet.t -> Switch.action
(** Pick among the registered ports by {!Packet.t.flow_hash}: all
    packets of a flow share a path, but different flows may collide on
    one path — the paper's Fig. 6 ECMP baseline.  See {!create} for
    per-table salting. *)

val ecmp_port : t -> Packet.t -> int
(** The port {!ecmp} would pick, or [-1] when the destination is
    unknown or portless.  For callers that want the raw index; like
    every selector here it allocates nothing. *)

val spray : t -> Packet.t -> Switch.action
(** Per-packet round robin over the registered ports — the paper's
    Fig. 6 packet-spraying baseline.  Causes reordering when path
    delays differ.  Counters are preallocated per entry (per
    destination for {!add} routes, per interval for {!add_range}
    routes) and persist across remove/restore. *)
