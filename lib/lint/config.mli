(** Which rules apply where.  Paths are root-relative with ['/']
    separators; module membership is by file basename so renames of
    parent directories keep the policy. *)

type spawn = {
  s_path : string list;
      (** consecutive-component match on a canonical dotted path, e.g.
          [["Pool"; "map"]] matches [Runner.Pool.map] *)
  s_main_labels : string list;
      (** labelled arguments of the matched call that stay on the main
          domain ([~exchange], [~commit]) *)
}
(** A call whose arguments become worker-domain entry points. *)

type t = {
  hot_modules : string list;  (** basenames (no extension) under H101 *)
  d001_dirs : string list;    (** behavior-affecting scope of D001 *)
  t201_dirs : string list;
  t201_exempt_dirs : string list;
      (** the telemetry subsystem itself implements the guard *)
  rng_modules : string list;  (** basenames allowed to touch [Random] *)
  mli_dirs : string list;
      (** scope of M001 and H105, and of U101/U102's exported
          interfaces *)
  spawn_spec : spawn list;    (** worker entry points *)
  guard_path : string list;
      (** consecutive-component pattern of the telemetry guard
          ([["Ctx"; "on"]]); T201 and H102 read branches under it *)
  offmain_forbidden : string list list;
      (** P102: consecutive-component patterns of main-domain-only
          APIs *)
  mutable_creators : string list list;
      (** P101: consecutive-component patterns of non-atomic mutable
          cell allocators *)
}

val default : t
(** The repo policy: hot set [eventqueue sim time link qdisc switch
    wire pktring packet node routing cc pathlet mtp_switch endpoint
    partition host], D001/T201
    over [lib] and [bin], [lib/telemetry] exempt from T201, [rng] may
    use [Random], [.mli] required and H105 under [lib]; worker entry
    points at [Domain.spawn] / [Runner.Pool] / [Runner.Epoch] /
    [Exp_common] job thunks, telemetry exporters and [Exp_common]
    result sinks forbidden off-main. *)

val in_dirs : string -> string list -> bool

val is_hot : t -> string -> bool
val is_rng : t -> string -> bool
val d001_applies : t -> string -> bool
val t201_applies : t -> string -> bool
val mli_required : t -> string -> bool

type rule_doc = { id : string; summary : string }

val rules : rule_doc list
(** Every rule simlint knows, for [--list-rules]. *)

val known_rule : string -> bool
