(** A 4-ary min-heap of int payloads keyed by [(time, seq)].

    The sequence number breaks ties so that events scheduled for the
    same instant fire in FIFO order — essential for deterministic
    simulation.  Keys and payloads are stored in parallel unboxed int
    arrays, so [add]/[pop_min] allocate nothing and compare only ints
    on the hot path. *)

type t

val create : ?capacity:int -> unit -> t

val size : t -> int

val is_empty : t -> bool

val add : t -> time:int -> seq:int -> int -> unit
(** Insert an element with the given priority key.  Does not
    allocate (amortised — growth doubles the backing arrays). *)

val min_time : t -> int
(** Time key of the smallest element.  @raise Invalid_argument when
    empty. *)

val min_seq : t -> int
(** Sequence number of the smallest element.  @raise Invalid_argument
    when empty. *)

val pop_min : t -> int
(** Remove and return the smallest element.
    @raise Invalid_argument when empty. *)
