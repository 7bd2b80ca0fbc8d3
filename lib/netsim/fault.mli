(** Deterministic, seeded fault injection.

    A fault plan schedules failures off {!Engine.Sim} timers and draws
    all its randomness from a private stream split off [seed], so a
    fixed seed replays an identical failure history regardless of what
    the workload does with the simulator's root RNG.

    The plan counts every packet it destroys, and releases each one to
    its pool, so [Check.Ledger]'s pool invariant holds through every
    fault path. *)

type t

val plan : ?seed:int -> Engine.Sim.t -> t

(** {1 Topology faults} *)

val link_down : t -> at:Engine.Time.t -> Link.t -> unit
(** Schedule {!Link.set_down} at absolute time [at].  No-op if the
    link is already down when the timer fires. *)

val link_up : t -> at:Engine.Time.t -> Link.t -> unit
(** Schedule {!Link.set_up} at absolute time [at]. *)

val reroute : t -> Routing.t -> port:int -> detect:Engine.Time.t -> Link.t -> unit
(** Model routing reconvergence: whenever the plan takes [link] down
    (resp. up), withdraw (restore) [port] from [routes] a detection
    delay [detect] later — but only if the link still holds that state
    when the delay expires, so flaps shorter than [detect] are
    invisible, as they would be to a real failure detector. *)

val blackhole :
  t -> ?from:Engine.Time.t -> ?until:Engine.Time.t -> Switch.t ->
  dst:Packet.addr -> unit
(** Install an ingress hook on the switch that silently absorbs every
    packet for [dst] inside the [\[from, until)] window (default:
    forever) — the classic misconfigured-route failure.  Absorbed
    packets are released to the switch's pool and counted in
    {!blackholed}. *)

(** {1 Packet faults}

    Both loss processes wrap the link's current qdisc (install them
    after any feedback-stamping wrapper) and refuse doomed packets at
    enqueue time; the link then releases them to its pool.  Injected
    losses are included in the wrapper's [drops] counter and in
    {!loss_drops}. *)

val gilbert_elliott :
  t -> ?p_gb:float -> ?p_bg:float -> ?loss_good:float -> ?loss_bad:float ->
  Link.t -> unit
(** Two-state bursty loss: per packet the chain moves Good→Bad with
    probability [p_gb] (default 0.001) and Bad→Good with [p_bg]
    (default 0.1); packets are lost with probability [loss_good]
    (default 0) in Good and [loss_bad] (default 0.3) in Bad. *)

val corrupt : t -> rate:float -> Link.t -> unit
(** Uniform corruption: each packet is independently dropped with
    probability [rate] (a corrupted frame fails its CRC and is
    discarded at the receiver).  [rate] must be in [\[0, 1)]. *)

(** {1 Accounting} *)

val loss_drops : t -> int
(** Packets destroyed by {!gilbert_elliott} / {!corrupt}. *)

val blackholed : t -> int
(** Packets absorbed by {!blackhole} hooks. *)

val drops : t -> int
(** All packets this plan destroyed. *)

val events : t -> (Engine.Time.t * string) list
(** Time-ordered log of topology transitions the plan executed. *)
