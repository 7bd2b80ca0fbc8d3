(** Unified metrics registry: named gauges and histograms,
    registerable from any layer of the stack.

    Registration happens at component-construction time (never on a
    hot path).  A histogram observation is allocation free (a few
    float compares and a store), and gauges cost nothing until
    {!snapshot} calls their closure. *)

type t

val create : unit -> t

val metric_count : t -> int

(** {1 Gauges} *)

val set_gauge : t -> string -> (unit -> float) -> unit
(** Register (or replace) a sampled-at-snapshot gauge.  Replacement
    semantics let consecutive simulations reuse component names with
    the final snapshot reading the live run. *)

(** {1 Histograms} *)

val histogram :
  t ->
  ?scale:[ `Linear | `Log ] ->
  lo:float ->
  hi:float ->
  buckets:int ->
  string ->
  Stats.Histogram.t
(** Get or create.  When the name already exists the existing
    histogram is returned and the bounds arguments are ignored.
    @raise Invalid_argument if the name is bound to a gauge. *)

val absorb : t -> from:t -> unit
(** Fold [from] into [t] as if [t] had seen its registrations and
    samples: gauges replace by name, histogram counts add up (the
    bounds must match).  [from] is left empty. *)

(** {1 Snapshots} *)

type row = {
  row_name : string;
  row_kind : string;  (** ["gauge"] | ["histogram"] *)
  row_fields : (string * float) list;
      (** [("value", v)] for gauges; count/underflow/
          overflow/invalid plus cumulative [le_<bound>] occupancy per
          bucket for histograms. *)
}

val snapshot : t -> row list
(** Current value of every metric, sorted by name (deterministic
    export order). *)
