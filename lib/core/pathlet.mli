(** The sender-side pathlet table: one congestion controller per
    [(pathlet id, traffic class)] pair, created on first contact, plus
    per-pathlet in-flight accounting.  Both fields are the header's
    wire widths ([path_id] u16, [path_tc] u8): the table keys on
    [(path_id lsl 8) lor path_tc]. *)

type t

val create :
  ?init_window:int -> ?mss:int -> ?suspect_after:int ->
  ?probe_interval:Engine.Time.t -> Cc.algo -> t
(** New controllers use these parameters.  The algorithm is the
    endpoint's default; {!set_algo_for} overrides per pathlet (the
    multi-algorithm case of paper §2.2).  A pathlet becomes {e suspect}
    after [suspect_after] (default 3) consecutive RTOs with no forward
    progress, and suspect pathlets are offered for revival probing
    every [probe_interval] (default 500us). *)

val get : t -> Wire.path_ref -> Cc.t
(** Controller for a pathlet, created lazily. *)

val set_algo_for : t -> Wire.path_ref -> Cc.algo -> unit
(** Pin a specific algorithm for one pathlet (replaces any existing
    state for it). *)

val inflight : t -> Wire.path_ref -> int
(** Bytes currently charged to a pathlet. *)

val charge : t -> Wire.path_ref list -> int -> unit
(** Add [bytes] of flight to each listed pathlet. *)

val discharge : t -> Wire.path_ref list -> int -> unit
(** Remove flight (floored at zero). *)

val headroom : t -> Wire.path_ref list -> int
(** [min over pathlets (window - inflight)]; how many more bytes may
    enter the network on a path composed of these pathlets.  Suspect
    pathlets are ignored unless every listed pathlet is suspect. *)

val headroom_sum : t -> Wire.path_ref list -> int
(** [sum over pathlets max(0, window - inflight)]: the aggregate send
    budget when the network spreads traffic over parallel pathlets
    (message-granular load balancing).  Suspect pathlets contribute
    nothing unless every listed pathlet is suspect. *)

val best_of : t -> Wire.path_ref list -> Wire.path_ref list
(** The pathlet with the most headroom, as a singleton charging target
    (empty input returns empty).  Suspect pathlets are never chosen
    unless every listed pathlet is suspect. *)

val on_ack :
  t ->
  now:Engine.Time.t ->
  acked:int ->
  rtt:Engine.Time.t ->
  implicit_trim:bool ->
  tc:int ->
  Wire.path_fb list ->
  unit
(** Feed one acknowledgement's path feedback to the controllers it
    names: each distinct pathlet once, in order of first appearance,
    with all of its entries folded into one {!Cc.signal} ({!Cc.on_signal}
    with [acked] and [rtt], [rtt < 0] for no sample).  Allocation-free
    once the controllers exist.  An empty list (no MTP-aware device
    annotated the path) evolves the default pathlet
    [{path_id = 0; path_tc = tc}] instead, seeing a trim when
    [implicit_trim] (a NACK implies trimming even if no hop said so). *)

(** {1 Pathlet health} *)

val note_timeout : t -> Wire.path_ref list -> now:Engine.Time.t -> unit
(** Record a retransmission timeout charged to these pathlets; after
    [suspect_after] consecutive timeouts a pathlet turns suspect. *)

val note_progress : t -> Wire.path_ref list -> unit
(** Record forward progress (new data acked) on these pathlets: the
    consecutive-RTO counters reset and any suspect flag clears. *)

val note_progress_fb : t -> Wire.path_fb list -> unit
(** {!note_progress} on every pathlet the feedback entries name. *)

val suspect : t -> Wire.path_ref -> bool

val strikes : t -> Wire.path_ref -> int
(** Current consecutive-RTO count (0 after any progress). *)

val suspects : t -> Wire.path_ref list
(** All currently suspect pathlets (empty in the healthy fast path). *)

val probe_target : t -> now:Engine.Time.t -> Wire.path_ref option
(** A suspect pathlet whose probe interval has elapsed, if any; marks
    it probed.  The caller routes one real data packet over it — an
    ack whose path feedback names the pathlet then revives it via
    {!note_progress}. *)

val known : t -> (Wire.path_ref * Cc.t) list
(** All pathlets seen so far. *)

val congested_paths : t -> now:Engine.Time.t -> Wire.path_ref list
(** Pathlets whose controllers saw congestion within the last two
    RTTs — candidates for the header's path-exclude list. *)
