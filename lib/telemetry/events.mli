(** Structured event trace: typed records in a bounded ring.

    Replaces stringly tracing on hot paths.  The ring is preallocated
    and records are mutated in place, so emitting an event allocates
    nothing; when the ring is full the oldest events are overwritten
    (the exporters report how many were lost, never silently).

    Emission call sites are expected to be guarded by
    {!Ctx.on} so a disabled simulation pays one branch and nothing
    else. *)

type kind =
  | Enqueue  (** packet accepted into a queue *)
  | Dequeue  (** packet left a queue for serialisation *)
  | Drop     (** packet lost: tail drop, fault, or switch verdict *)
  | Mark     (** ECN CE newly stamped on a packet *)
  | Trim     (** payload cut to a header (NDP-style) *)
  | Send     (** transport emitted a data segment/packet *)
  | Ack      (** transport processed an acknowledgement *)
  | Rto      (** retransmission timeout fired *)
  | Steer    (** MTP charged a packet to a pathlet *)
  | Exclude  (** MTP header carried a path-exclude list *)
  | Complete (** message fully acknowledged *)
  | Fail     (** message aborted (deadline/retries) *)

val kind_name : kind -> string

val ab_names : kind -> string * string
(** Field names for the kind-specific [a] and [b] cells (e.g. [Send]
    carries [seq]/[cwnd], queue events carry [qpkts]/[qbytes]). *)

type record_ = private {
  mutable at : Engine.Time.t;
  mutable kind : kind;
  mutable point : string;
  mutable uid : int;
  mutable src : int;
  mutable dst : int;
  mutable size : int;
  mutable a : int;
  mutable b : int;
}
(** One event.  [point] names the emitting component (a link, switch
    or transport); [uid]/[src]/[dst]/[size] describe the packet or
    message ([-1] when not applicable); [a]/[b] are kind-specific (see
    {!ab_names}). *)

type t

val create : ?capacity:int -> unit -> t
(** Ring of [capacity] (default 65536) preallocated records. *)

val capacity : t -> int

val emit :
  t ->
  at:Engine.Time.t ->
  kind:kind ->
  point:string ->
  uid:int ->
  src:int ->
  dst:int ->
  size:int ->
  a:int ->
  b:int ->
  unit
(** Record an event, overwriting the oldest when full.  Allocation
    free: pass [-1]/[0] for inapplicable fields rather than wrapping
    them in options. *)

val total : t -> int
(** Events ever emitted (including overwritten ones). *)

val retained : t -> int

val dropped : t -> int
(** [total - retained]: events lost to ring wrap-around. *)

val iter : t -> (record_ -> unit) -> unit
(** Oldest-first over the retained window. *)
