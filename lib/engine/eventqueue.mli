(** A 4-ary min-heap keyed by [(time, seq)].

    The sequence number breaks ties so that events scheduled for the
    same instant fire in FIFO order — essential for deterministic
    simulation.  Keys are stored in parallel unboxed int arrays, so
    [add]/[pop_min] allocate nothing on the hot path, and freed slots
    are overwritten with [dummy] so popped values are never retained
    by the heap. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused payload slots; it must be safe to retain
    indefinitely (use a cheap sentinel, not a live value). *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert an element with the given priority key.  Does not
    allocate (amortised — growth doubles the backing arrays). *)

val min_time : 'a t -> int
(** Time key of the smallest element.  @raise Invalid_argument when
    empty. *)

val min_seq : 'a t -> int
(** Sequence number of the smallest element.  @raise Invalid_argument
    when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the smallest element without boxing the key.
    @raise Invalid_argument when empty. *)
