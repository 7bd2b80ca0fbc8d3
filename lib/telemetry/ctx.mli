(** The telemetry context: an event ring, a metrics registry and run
    marks, reached without threading a handle through each
    constructor.

    Each domain has a {e current} context.  It starts as the domain's
    own, disabled: an instrumented hot path then pays one branch
    ({!on}) and performs no allocation, registration or event
    emission — the bench guardrails hold with telemetry off.

    A job or a partition runs, on whichever domain, under a {e staged}
    context that belongs to it: [Exp_common.run_jobs] stages one per
    job and [Partition.run] one per partition, and the calling domain
    {!absorb}s them in job or partition order.  The export of a run is
    therefore the one a serial run makes, for any [--jobs].

    Typical use (what [mtp_sim --trace/--metrics] does): {!enable}
    before building the simulation, run, then hand {!events} and
    {!metrics} to {!Export}. *)

val on : unit -> bool
(** Fast guard for instrumentation sites:
    [if Ctx.on () then Events.emit (Ctx.events ()) ...].  [true] when
    the calling domain's current context is enabled. *)

val events : unit -> Events.t

val metrics : unit -> Registry.t

val enable : ?events_capacity:int -> unit -> unit
(** Switch the current context on with a fresh event ring (default
    capacity 65536) and registry.  No-op when already enabled. *)

val disable : unit -> unit
(** Stop collection; retained events and metric values survive for
    export. *)

val reset : unit -> unit
(** Fresh ring, registry and run marks, preserving the enabled state
    (test isolation). *)

val mark_run : string -> unit
(** Take a labeled snapshot of the current registry — called by the
    experiment harness at per-run boundaries so exports separate, say,
    the DCTCP and MTP halves of one exhibit.  Inside a job it
    snapshots that job's own metrics.  No-op when disabled. *)

val runs : unit -> (string * Registry.row list) list
(** Marked snapshots, oldest first. *)

(** {1 Staging} *)

type t

val stage : unit -> t option
(** An empty enabled context with the current one's ring capacity, or
    [None] when the current context is off (then nothing is staged). *)

val within : t option -> ('a -> 'b) -> 'a -> 'b
(** [within staged f] is [f] made to run with the staged context as
    the calling domain's current one, restoring the previous one
    afterwards (also when [f] raises); with [None] it is [f] itself. *)

val absorb : t option -> unit
(** Append a staged context's events, metrics ({!Registry.absorb}) and
    run marks to the current context, and empty it for reuse. *)
