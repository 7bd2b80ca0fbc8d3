(** Transport-agnostic traffic drivers.

    A driver repeatedly invokes a [send] closure (MTP message, TCP
    flow, UDP datagram — anything) according to an arrival process,
    collecting completion times into a {!Stats.Summary.t}. *)

type send = size:int -> on_complete:(Engine.Time.t -> unit) -> unit
(** Start one transfer of [size] bytes; call [on_complete] with the
    completion time when it finishes. *)

type t

val fcts : t -> Stats.Summary.t
(** Completion times, in microseconds. *)

val started : t -> int

val completed : t -> int

val stop : t -> unit

val pooled_fcts : t list -> Stats.Summary.t
(** The completion times of every driver in one summary, e.g. for a
    percentile across many independent chains. *)

val poisson :
  Engine.Sim.t ->
  rng:Engine.Rng.t ->
  size:Dist.t ->
  mean_interarrival:Engine.Time.t ->
  ?until:Engine.Time.t ->
  send ->
  t
(** Open-loop: start transfers with exponential interarrivals (sizes
    from [size]) until [until] (or {!stop}). *)

val closed_loop : ?parallel:int -> size:int -> send -> t
(** Closed-loop: [parallel] (default 1) chains of [size]-byte
    transfers, each starting the next the moment the previous
    completes, until {!stop}. *)

val load_interarrival :
  rate:Engine.Time.rate -> load:float -> mean_size:float -> Engine.Time.t
(** Mean interarrival that drives a link of [rate] at fraction [load]
    with messages of [mean_size] bytes. *)
