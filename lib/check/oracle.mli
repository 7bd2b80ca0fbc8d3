(** Invariant oracles: event-order and transport-state checks cheap
    enough to run inside every fuzz case.  Conservation lives in
    {!Ledger}. *)

(** {1 Event order} *)

type monotone
(** Watches a stream of timestamps for regressions — wired as a tap on
    every link/switch, it asserts the dispatch order the engine
    guarantees (pops strictly by [(time, seq)]) is never violated. *)

val monotone : unit -> monotone

val tap : monotone -> Engine.Time.t -> Netsim.Packet.t -> unit
(** Observe a packet's timestamp; shaped for [Link.add_tap] /
    [Switch.add_tap]. *)

val monotone_result : monotone -> (unit, string) result
(** [Error] describing the first regression, if any was seen. *)

(** {1 Transport state} *)

val completions_once : int array -> (unit, string) result
(** Given per-message completion counts, flags any message whose
    completion callback fired more than once. *)

val pathlets_consistent : Mtp.Pathlet.t -> (unit, string) result
(** The pathlet exclusion set is a subset of the known paths, every
    excluded path is suspect, and windows and strike counters are
    non-negative.  (In-flight bytes are checked exactly, against the
    packets, by {!endpoint_ok}.) *)

val endpoint_ok : Mtp.Endpoint.t -> (unit, string) result
(** All endpoint counters non-negative, {!pathlets_consistent} on its
    pathlet table, the send pump's bookkeeping
    ({!Mtp.Endpoint.check_pump}), and exact flight conservation: every
    pathlet's in-flight bytes equal the summed payload of the
    endpoint's in-flight packets charged to it
    ({!Mtp.Endpoint.charged_flight}). *)
