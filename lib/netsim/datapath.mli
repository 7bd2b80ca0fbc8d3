(** Global datapath configuration for the batched breath-loop.

    Links sample {!enabled} once at creation: a link built while
    batching is on coalesces per-packet transmit/deliver events into
    per-burst events (identical packet timing, far fewer heap
    operations); a link built while it is off runs the classic
    one-event-per-packet datapath.  The flag starts from
    [MTP_BATCHING] in the environment and changes only inside
    {!with_batching}, which never affects links that already exist.
    A burst commits at most 64 packets, the size of each link's
    completion-time arrays; {!with_burst_limit} clamps that lower. *)

val enabled : unit -> bool
(** Whether links created now use the batched datapath (default
    [true]). *)

val with_batching : bool -> (unit -> 'a) -> 'a
(** [with_batching v f] runs [f] with the flag set to [v], restoring
    the previous value afterwards (exception-safe) — the hook the
    differential oracle uses to run one scenario both ways. *)

val burst_limit : unit -> int
(** The operative per-burst limit: 64, optionally clamped
    down by [MTP_MAX_BURST] in the environment (read once at startup)
    for debugging and bisection.  Sampled once per burst activation. *)

val with_burst_limit : int -> (unit -> 'a) -> 'a
(** [with_burst_limit n f] runs [f] with the per-burst limit clamped
    to [min n 64], restoring the previous value afterwards
    (exception-safe).  [with_burst_limit 1] makes batched links commit
    one packet per activation — the classic event shape — which the
    differential oracle compares against the default walk.
    @raise Invalid_argument when [n < 1]. *)
