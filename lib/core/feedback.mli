(** Pathlet congestion feedback, carried as Type-Length-Value entries
    in MTP headers (paper §3.1.3).

    The TLV encoding is what lets different resources speak different
    congestion-control dialects at once: an ECN hop and an RCP hop can
    both annotate the same packet, and the sender dispatches each entry
    to the matching per-pathlet controller. *)

type t =
  | Ecn of bool
      (** DCTCP-style mark: queue at this hop was above threshold. *)
  | Queue of int  (** Instantaneous queue depth in packets. *)
  | Rate of int  (** Explicit rate grant in Mbps (RCP-style). *)
  | Delay of int  (** Queueing/residence delay at this hop in ns. *)
  | Trimmed  (** The packet's payload was trimmed here (NDP-style). *)

val encoded_size : t -> int
(** Bytes of the TLV on the wire (type + length + value). *)

val encode : Buffer.t -> t -> unit

val decode : Bytes.t -> pos:int -> t * int
(** [decode buf ~pos] returns the value and the position after it.
    @raise Failure on a malformed or unknown TLV. *)

val is_congested : t -> bool
(** Whether this entry, on its own, signals congestion (used for path
    exclusion decisions). *)

val equal : t -> t -> bool
