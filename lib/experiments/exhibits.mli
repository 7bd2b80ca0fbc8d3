(** The exhibit table: every [mtp_sim] command that regenerates an
    exhibit, declared once with its flags, default and smoke configs,
    cross-flag rules and job grid.  The command line, [mtp_sim all] and
    the CLI tests are derived from it.  It holds no cmdliner because a
    cmdliner term cannot be enumerated, and the tests walk every flag. *)

type unit_ = One | Us | Ms | Kb | Mb
(** A count or bytes; µs or ms, scaled to {!Engine.Time.t}
    nanoseconds; KB or MB, scaled to bytes. *)

val scale : unit_ -> int
(** Config value of one flag unit: 1, 1000 or 1 000 000. *)

type _ kind =
  | Int : { lo : int; unit : unit_; hi : int } -> int kind
      (** At least [lo] units, and at most [hi] once scaled: [max_int / 4]
          for a scaled time or size (a sum of two cannot overflow), the
          MTP header's u32 [msg_len] for a message size, [max_int] for a
          count. *)
  | Fraction : float kind  (** In (0, 1]. *)
  | Any_int : int kind  (** A seed. *)
  | Enum : (string * 'v) list -> 'v kind

(** A flag's [name] has no dashes (one letter makes a short flag);
    [get] and [set] are in config units (nanoseconds, bytes). *)
type 'c flag =
  | Flag : {
      name : string; doc : string; kind : 'v kind;
      get : 'c -> 'v; set : 'v -> 'c -> 'c } -> 'c flag

(** Every flag's default is read from [default]; [smoke] is the config
    of [mtp_sim all --smoke]; [check] holds the fabric caps, fig3's
    cap on its total chain count and incast's even [k] and fanout
    bound. *)
type t =
  | Exhibit : {
      name : string; doc : string; default : 'c; smoke : 'c;
      flags : 'c flag list; check : 'c -> (unit, string) result;
      jobs : jobs:int -> emit:(Exp_common.result -> unit) -> 'c ->
        Exp_common.job list } -> t

val all : t list
(** The exhibits of [mtp_sim all], in its order. *)

val par_leafspine : t
(** Declared like the others, but left out of [all]. *)
