(** Simulated packets.

    A packet carries bookkeeping common to every protocol (addresses,
    wire size, ECN/trim bits, entity tag) plus a protocol payload.
    The payload type is an extensible variant so each transport library
    adds its own header type without [netsim] depending on it.

    Every packet comes from a pool ({!pool}/{!take}/{!release}), so
    steady-state forwarding allocates nothing; to make that possible
    every field is mutable, but only pool operations may re-initialise
    a packet — everything else must treat [uid], [src], [dst],
    [entity], [prio], [flow_hash] and [created_at] as immutable. *)

type addr = int
(** Host/endpoint address.  Allocated by {!Topology}. *)

type proto = ..
(** Protocol payloads; extended by transport libraries. *)

type proto += Raw
(** Opaque payload with no protocol header. *)

type t = {
  mutable uid : int;  (** Unique per packet; retained across forwarding. *)
  mutable src : addr;
  mutable dst : addr;
  mutable size : int;
      (** Total wire size in bytes (headers + payload).  Mutable so
          in-network offloads can mutate data (compression, trimming). *)
  mutable flags : int;
      (** Per-hop status bits (ECN CE, trimmed) packed in one immediate
          word; read and set through {!ecn_ce} / {!set_ecn_ce} /
          {!trimmed} / {!set_trimmed}. *)
  mutable entity : int;
      (** Provenance tag (tenant / traffic class) used by per-entity
          policies; [0] when unused. *)
  mutable prio : int;  (** Scheduling priority; lower is more urgent. *)
  mutable flow_hash : int;  (** Flow identifier hash for ECMP-style choices. *)
  mutable created_at : Engine.Time.t;
  mutable payload : proto;
}

val none : t
(** Sentinel used to fill empty pool/ring slots, and what
    {!Qdisc.t.dequeue} answers for an empty queue.  Compare with [==].
    Never send it: {!Link.send} raises [Invalid_argument] on it. *)

val ecn_ce : t -> bool
(** Congestion Experienced mark. *)

val trimmed : t -> bool
(** Payload removed by an NDP-style qdisc. *)

val set_ecn_ce : t -> unit
(** Set the CE bit (marks are never cleared in flight). *)

val set_trimmed : t -> unit
(** Set the trimmed bit (the qdisc also shrinks [size]). *)

(** {1 Pooling}

    Every transport sends packets taken with {!take} from its node's
    pool ({!Node.pool}), and {!Topology} gives every host, switch and
    link of a simulator one pool.  A packet belongs to whoever holds
    it, and the holder that ends its life releases it into its
    simulator's pool:
    - a link or switch releases every packet it drops (tail drop, fault
      drop, [Switch.Drop]);
    - a host releases a packet once a stack claims it ({!Host});
    - a packet no stack claims is not released: the host counts it
      ([Host.unclaimed]) and leaves it intact;
    - a switch hook that answers [Switch.Absorb] owns the packet (an
      aggregator keeps the absorbed header as its template), so the
      switch never releases it.
    A packet crossing into another partition parks in that partition's
    pool.  A pool parks what was released beyond what was taken back
    (up to {!max_parked}), and hands out fresh records only past its
    peak of packets in use.  A parked packet keeps its payload: a
    sender whose protocol's header box is the {!parked_payload}
    refills it and passes it to {!take}, so a steady exchange
    allocates neither records nor headers. *)

type pool
(** A free-list of released packets belonging to one simulator: the
    one {!Topology} shares among its devices there, or a raw source's
    own. *)

val pool : Engine.Sim.t -> pool
(** An empty pool; its free-list starts with room for 64 packets and
    grows as needed, up to {!max_parked}. *)

val max_parked : int
(** Packets one pool parks at most (4096, the measured peak of parked
    packets of a simulator's shared pool, rounded up to a power of
    two); past it a released packet is left to the GC. *)

val release : pool -> t -> unit
(** Park a packet for reuse, payload and all.  The caller must not
    touch it afterwards.  Releasing {!none} is a no-op.
    @raise Invalid_argument if the packet is already parked (released
    and not taken since): a second release would hand one record to
    two owners. *)

val take :
  pool ->
  entity:int ->
  prio:int ->
  flow_hash:int ->
  payload:proto ->
  src:addr ->
  dst:addr ->
  size:int ->
  t
(** The one way to make a packet: re-initialises a released packet
    when one is parked, else allocates a fresh one.  Either way the
    packet gets a new per-sim [uid] and the sim's clock.  [size] must
    be positive.  Every label is required: an optional argument would
    box each value given. *)

val parked_payload : pool -> proto
(** The payload of the packet the next {!take} hands out; [Raw] when
    none is parked. *)

val recycle :
  ?flow_hash:int -> pool -> src:addr -> dst:addr -> size:int -> unit -> t
(** {!take} of a [Raw] packet with [entity] and [prio] [0]; [flow_hash]
    defaults to [0].  Kept for the raw sources that still call it;
    transports use {!take}. *)

val pool_sim : pool -> Engine.Sim.t
(** The simulator whose uids and clock {!take} stamps. *)

val pool_free : pool -> int
(** Packets currently parked. *)

val pool_stats : pool -> int * int
(** [(fresh, reused)] allocation counters for bench reporting. *)

val pool_live : pool -> int
(** Packets checked out via {!take} and not yet {!release}d into this
    pool — the population a conservation audit must find in queues and
    on wires when one pool's packets stay among its own users.
    Negative for a pool that has taken back more packets than it sent
    (a partition's, when packets from other partitions park in it). *)

val flow_hash_of : src:addr -> dst:addr -> src_port:int -> dst_port:int -> int
(** Deterministic 5-tuple-style hash for ECMP. *)
