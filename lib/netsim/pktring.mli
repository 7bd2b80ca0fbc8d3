(** Growable packet ring buffer (FIFO).

    Push/pop allocate nothing (amortised), and vacated slots are
    overwritten with {!Packet.none} so departed packets are not
    retained. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> Packet.t -> unit

val pop : t -> Packet.t
(** @raise Invalid_argument when empty. *)

val peek : t -> Packet.t
(** @raise Invalid_argument when empty. *)
