(** Compact, replayable fuzz-case specifications.

    A spec fully determines one scenario — topology, qdisc, transport,
    message workload, fault plan — within bounds that keep a single
    case to a few simulated milliseconds.  Specs serialize to a small
    line-oriented text format ([to_string]/[of_string] round-trip), so
    a failing case shrinks to a file in [test/corpus/] that replays by
    path. *)

type topo =
  | Pair  (** Two hosts, direct duplex wire. *)
  | Star of int  (** [n] clients + server behind one switch (incast). *)
  | Dumbbell of int  (** [n] pairs across a shared bottleneck. *)
  | Two_path  (** One pair, two parallel paths. *)
  | Leaf_spine of { leaves : int; spines : int; hosts : int }
      (** Small two-tier Clos, [hosts] per leaf. *)
  | Fat_tree of { k : int }
      (** Small k-ary fat-tree ([k] even, [k³/4] hosts); generation
          draws k ∈ {4, 6}. *)

type qdisc_kind =
  | Q_fifo of int
  | Q_ecn of { cap : int; thresh : int }
  | Q_red of { cap : int; min_th : int; max_th : int }
  | Q_trim of int

type transport = T_tcp | T_dctcp | T_udp | T_mtp

type flow = { f_src : int; f_dst : int; f_size : int; f_start_us : int }
(** Host indices are arbitrary ints; the scenario builder maps them
    into the topology's valid endpoints (mod), so shrinking the
    topology never invalidates a flow. *)

type fault =
  | F_down_up of { link : int; down_us : int; up_us : int }
  | F_corrupt of { link : int; rate_pct : int }
  | F_gilbert of { link : int }
      (** [link] is likewise reduced mod the topology's link count. *)

type t = {
  seed : int;
  topo : topo;
  qdisc : qdisc_kind;  (** Installed on the bottleneck queue(s). *)
  transport : transport;
  rate_mbps : int;
  delay_us : int;
  duration_us : int;
  flows : flow list;
  faults : fault list;
}

val generate : Engine.Rng.t -> t
(** Draw a bounded random spec (advances the RNG). *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** [Error] for a malformed line and for a value no scenario can run
    (a zero rate or queue capacity, a negative time, index, size or ECN
    threshold, RED thresholds at or above the capacity). *)

val save : path:string -> t -> unit
val load : string -> (t, string) result
