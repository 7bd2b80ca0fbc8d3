(** Per-entity isolation policies (paper §5.3).

    A policy assigns each entity (tenant, traffic class) a share of a
    resource.  MTP switches enforce it at a {e shared} queue via
    {!Netsim.Qdisc.fair_mark} — no per-entity queues needed — because
    every MTP packet carries its provenance. *)

type t

val equal_shares : entities:int list -> t
(** Each listed entity gets [1/n]. *)

val weighted : (int * float) list -> t
(** Explicit [(entity, weight)] pairs; weights are normalized. *)

val share : t -> int -> float
(** Normalized share of an entity (0 for unknown entities). *)

val class_of : t -> int -> int
(** Dense class index of an entity for qdisc classification
    (unknown entities map to class 0). *)

val install_fair_share :
  t -> Netsim.Link.t -> cap_pkts:int -> mark_threshold:int -> unit
(** Replace the link's queue with a single shared FIFO that CE-marks
    entities exceeding their policy share. *)
