(** Discrete-event simulation core.

    A [Sim.t] holds the virtual clock and the pending-event heap.
    Devices schedule closures at absolute or relative times; [run]
    drains the heap in time order.  Events scheduled for the same
    instant fire in the order they were scheduled.

    Event slots are pooled: scheduling allocates nothing beyond the
    user's closure, and a {!timer} re-arms without allocating at
    all. *)

type t

type handle
(** A scheduled event, usable for cancellation.  Handles are
    generation-checked: cancelling after the event fired (or after its
    slot was reused) is a safe no-op. *)

val create : ?seed:int -> unit -> t
(** Fresh simulator.  [seed] (default 42) seeds the root {!Rng.t}. *)

val now : t -> Time.t
(** Current virtual time. *)

(* simlint: allow U101 — [create ~seed] seeds it; bench/suite passes [~seed] *)
val rng : t -> Rng.t
(** The simulator's root random stream.  Components that need private
    streams should {!Rng.split} it at setup time. *)

val fresh_uid : t -> int
(** Next value of this simulator's uid counter (1, 2, 3, ...) — used
    for packet uids so concurrent sims stay independent and
    deterministic. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** Run a closure at absolute time [at].  [at] must not be in the
    past (a single int comparison on the fast path; the error string
    is only built on failure). *)

val after : t -> Time.t -> (unit -> unit) -> handle
(** [after t dt f] runs [f] at [now t + dt]. *)

val cancel : t -> handle -> unit
(** Prevent a pending event from firing.  Cancelling a fired or
    already-cancelled event is a no-op. *)

(** {1 Re-armable timers} *)

type timer
(** A cancellable, re-armable one-shot timer.  The underlying closure
    is built once at {!timer} creation, so re-arming allocates
    nothing — the tool for protocol timers (RTO, persist, delayed-ack)
    that arm and cancel on every packet. *)

val timer : t -> (unit -> unit) -> timer
(** [timer t f] makes a disarmed timer that runs [f] when it fires.
    The timer is automatically disarmed just before [f] runs, so [f]
    may re-arm it. *)

val arm : timer -> at:Time.t -> unit
(** Schedule (or reschedule) the timer for absolute time [at].  Any
    previously pending firing is cancelled. *)

val arm_after : timer -> Time.t -> unit
(** Relative-time {!arm}. *)

val disarm : timer -> unit
(** Cancel the pending firing, if any. *)

val armed : timer -> bool
(** Whether a firing is pending. *)

val periodic : t -> interval:Time.t -> (unit -> bool) -> timer
(** [periodic t ~interval f] runs [f] every [interval], starting one
    interval from now, until [f] returns [false].
    The returned timer can be {!disarm}ed to stop the recurrence
    mid-run. *)

(** {1 Reserved tie positions} *)

val reserve_seq : t -> int
(** Take the next scheduling sequence number without scheduling
    anything: the place in the same-instant (FIFO) order that a
    {!schedule} call here would have taken.  Every later schedule
    fires after it among events at the same instant.  Hand it to
    {!arm_reserved}, once. *)

val arm_reserved : timer -> at:Time.t -> seq:int -> unit
(** Arm the timer at absolute time [at] with a [seq] taken earlier
    from {!reserve_seq} on the timer's simulator: the firing takes
    exactly the tie position an eager {!schedule} at reservation time
    would have taken, however many events were scheduled in between.
    Cancels any pending firing, like {!arm}.  Each reserved seq must
    be armed at most once.
    @raise Invalid_argument if [at] is before [now]. *)

(** {1 Execution} *)

exception
  Dispatch_error of {
    time : Time.t;  (** Sim time of the crashing event. *)
    seq : int;  (** Its scheduling sequence number ((time, seq) key). *)
    uid : int;  (** Dispatch ordinal: the n-th event ever executed. *)
    inner : exn;  (** The original exception. *)
  }
(** A callback exception escaping event dispatch is re-raised wrapped
    in this (original backtrace preserved, printer registered), so a
    crash carries the exact coordinates of the event that raised it —
    with a deterministic seed that makes any fuzz crash immediately
    reproducible.  Nested dispatches never double-wrap. *)

val run : ?until:Time.t -> t -> unit
(** Drain events in time order.  With [until], stops once the next
    event would fire strictly after [until] and advances the clock to
    [until]. *)

val run_before : t -> limit:Time.t -> unit
(** Half-open window drain for epoch-based parallel simulation:
    execute every pending event with time {e strictly} less than
    [limit], then advance the clock to [limit].  Events at exactly
    [limit] are left pending, so consecutive windows
    [\[t0,t1) \[t1,t2) ...] partition the event sequence without ever
    splitting a same-instant group across a boundary.  See DESIGN.md
    "Conservative parallel DES". *)

val next_time : t -> Time.t option
(** Earliest pending event time, or [None] on an empty heap.  May
    report a cancelled event's slot (conservative, like the heap
    itself) — callers use it as a lower bound, e.g. the epoch driver's
    idle-window skip. *)

val pending : t -> int
(** Number of events in the heap (including cancelled ones). *)

val events_processed : t -> int
(** Total events executed so far, for reporting. *)
