(** Packet-conservation ledger: every packet offered to the network is
    delivered, dropped (counted), or still queued/in flight — per
    link, per switch, and optionally per packet pool.

    The link and switch checks work from per-device counters, so they
    also cover transports, which allocate with [Packet.make] outside
    any pool:
    - link: [sends = delivered + qdisc drops + fault_drops + queued +
      in-flight];
    - switch: [received + injected = forwarded + dropped + consumed].

    Baselines snapshot at watch time, so the ledger checks deltas and
    can attach to a warm topology.  Watch after all qdisc wrapping
    (e.g. [Fault.gilbert_elliott]) is installed. *)

type t

val create : unit -> t

val watch_link : t -> Netsim.Link.t -> unit
(** Snapshot the link's counters; {!check} verifies the delta. *)

val watch_switch : t -> Netsim.Switch.t -> unit

val watch_pool : t -> Netsim.Packet.pool -> unit
(** Also assert the pool invariant ([pool_live] = queued + in-flight
    across the watched links + [held]) — only meaningful when the
    watched links are exactly the pool's users. *)

val failures : ?held:int -> t -> string list
(** All violated invariants, one message each (empty = conserved).
    [held] is the number of pooled packets the caller intentionally
    retains, for the {!watch_pool} invariant. *)

val check : t -> (unit, string) result
(** [Ok ()] when every watched device conserves packets, [Error msg]
    joining all violations otherwise. *)
