(** Simulated packets.

    A packet carries bookkeeping common to every protocol (addresses,
    wire size, ECN/trim bits, entity tag) plus a protocol payload.
    The payload type is an extensible variant so each transport library
    adds its own header type without [netsim] depending on it.

    Packets can be pooled ({!pool}/{!release}/{!recycle}) so
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
(** Sentinel used to fill empty pool/ring slots.  Never send it. *)

val ecn_ce : t -> bool
(** Congestion Experienced mark. *)

val trimmed : t -> bool
(** Payload removed by an NDP-style qdisc. *)

val set_ecn_ce : t -> unit
(** Set the CE bit (marks are never cleared in flight). *)

val set_trimmed : t -> unit
(** Set the trimmed bit (the qdisc also shrinks [size]). *)

val make :
  entity:int ->
  prio:int ->
  flow_hash:int ->
  payload:proto ->
  Engine.Sim.t ->
  src:addr ->
  dst:addr ->
  size:int ->
  t
(** Fresh packet stamped with the sim's clock and a new per-sim
    [uid].  [size] must be positive.  Every label is required: an
    optional argument would box each value given. *)

(** {1 Pooling} *)

type pool
(** A free-list of released packets belonging to one simulator. *)

val pool : Engine.Sim.t -> pool
(** An empty pool; its free-list starts with room for 64 packets and
    grows as needed. *)

val release : pool -> t -> unit
(** Park a packet for reuse.  The caller must not touch it afterwards.
    Releasing {!none} is a no-op. *)

val recycle :
  ?flow_hash:int ->
  ?payload:proto ->
  pool ->
  src:addr ->
  dst:addr ->
  size:int ->
  unit ->
  t
(** Like {!make} but re-initialises a released packet when one is
    available (fresh [uid] and timestamp included).  [entity] and
    [prio] are [0]; omitted labels default to [0] and [Raw]. *)

val pool_free : pool -> int
(** Packets currently parked. *)

val pool_stats : pool -> int * int
(** [(fresh, reused)] allocation counters for bench reporting. *)

val pool_live : pool -> int
(** Packets checked out via {!recycle} and not yet {!release}d — the
    population a conservation audit must find in queues and on wires.
    Packets created with {!make} directly are not counted. *)

val flow_hash_of : src:addr -> dst:addr -> src_port:int -> dst_port:int -> int
(** Deterministic 5-tuple-style hash for ECMP. *)
