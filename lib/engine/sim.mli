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
(** Cancel the pending firing (armed or planned), if any. *)

val armed : timer -> bool
(** Whether a firing is pending (armed or planned). *)

val periodic : t -> interval:Time.t -> (unit -> bool) -> timer
(** [periodic t ~interval f] runs [f] every [interval], starting one
    interval from now, until [f] returns [false].
    The returned timer can be {!disarm}ed to stop the recurrence
    mid-run. *)

(** {1 Burst lookahead} *)

val try_advance : t -> upto:Time.t -> bool
(** [try_advance t ~upto] advances the clock to [upto] and returns
    [true] iff no pending event is due at or before [upto]; otherwise
    it leaves the clock alone and returns [false] (the caller should
    fall back to scheduling a real event).  This is the engine side of
    the batched datapath: a device that planned a whole burst of
    sub-events (with known times) drains them in one event handler,
    paying a single integer comparison per sub-event instead of a heap
    push/pop — while preserving the exact global event order, because
    the clock only jumps over intervals the heap proves empty.
    @raise Invalid_argument if [upto] is before [now]. *)

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
    Cancels any pending firing and drops a {!plan} reservation, like
    {!arm}.  Each reserved seq must be armed at most once.
    @raise Invalid_argument if [at] is before [now]. *)

val plan : timer -> at:Time.t -> unit
(** Reserve the timer's place in the same-instant (FIFO) event order
    at absolute time [at] {e without touching the heap} — one counter
    bump.  Events scheduled afterwards at the same instant fire after
    the planned firing, exactly as if the timer had been {!arm}ed
    here ({!reserve_seq}).  A subsequent {!run_plan_inline} consumes the reservation
    inline; {!commit_plan} turns it into a real heap event; {!arm} and
    {!disarm} discard it.  The steady-state tail of the burst walk:
    together with {!run_plan_inline} it replaces a heap push and pop
    per sub-event with two integer comparisons.
    @raise Invalid_argument if [at] is before [now]. *)

val planned : timer -> bool
(** Whether a reservation from {!plan} is outstanding. *)

val run_plan_inline : timer -> bool
(** For a planned timer: [true] iff no pending heap event fires before
    the reserved (time, seq) position; the clock jumps to the planned
    instant, the reservation is consumed, and the caller runs the
    timer's work inline.  Returns [false] (reservation kept) when
    another event intervenes — the caller must then {!commit_plan}
    before returning to the dispatcher, since a bare reservation fires
    nothing by itself. *)

val commit_plan : timer -> unit
(** Insert the planned firing into the heap as a real event carrying
    its reserved seq ({!arm_reserved}), preserving the tie order the reservation
    guaranteed.  No-op when nothing is planned. *)

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
