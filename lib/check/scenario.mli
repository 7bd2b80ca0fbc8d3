(** Build and drive one fuzz scenario from a {!Spec}.

    A built scenario carries the full oracle set pre-attached: a
    conservation {!Ledger} over every link and switch, a monotone-time
    watcher tapped on every device, per-message completion counters,
    and (for MTP) the endpoints for transport-state checks.

    [digest] renders everything observable — an event trace of
    deliveries, completions and periodic queue samples, plus final
    per-device/per-stack counters — as one deterministic string; the
    differential runner compares digests across paired configurations
    byte-for-byte.

    The same build also makes a partitioned world ([Netsim.Partition]:
    one partition per leaf or pod, two for the smaller shapes) driven
    by the conservative epoch runner.  Its digest is a canonical
    per-partition rendering: compare partitioned runs against each
    other across [jobs] values — not against a single-sim digest,
    whose global trace interleaving depends on single-heap tie
    breaking that a partitioned world deliberately does not
    reproduce. *)

type fault_mode =
  | As_spec  (** Apply the spec's fault list. *)
  | Noop
      (** Install a fault plan that provably never fires inside the
          run (a down-event past the horizon, a zero-loss
          Gilbert-Elliott wrapper) — output must equal a faultless
          run. *)

type t

val partitionable : Spec.t -> bool
(** Whether the spec can be built [~partitioned:true]: a positive
    link delay (conduit lookahead) and at least two partitions (a
    leaf-spine needs two leaves). *)

val build : ?fault:fault_mode -> ?partitioned:bool -> Spec.t -> t
(** Construct the topology, stacks, workload, faults and oracles —
    on one simulator, or on a partitioned world when [partitioned]
    (default [false]).  Defaults to [As_spec].
    @raise Invalid_argument when [partitioned] and not
    {!partitionable}. *)

val run : ?jobs:int -> t -> unit
(** Drive the simulation to the spec's horizon; a partitioned world
    runs on [jobs] workers (default 1), with byte-identical results
    for any value. *)

val digest : t -> string
(** The rendered observable output (call after {!run}). *)

val oracle_failures : t -> string list
(** All oracle violations: conservation, event order, completion
    uniqueness, MTP pathlet/window consistency.  Empty = clean. *)

val outcome :
  ?inject:(t -> unit) ->
  ?fault:fault_mode ->
  ?partitioned:bool ->
  ?jobs:int ->
  Spec.t ->
  (string, string) result
(** {!build}, apply [inject], {!run}, then the {!digest} — or
    [Error] with the oracle violations. *)

(**/**)

val links : t -> Netsim.Link.t array
val sim : t -> Engine.Sim.t
(** Internal surface for the mutation test's bug injector. *)
