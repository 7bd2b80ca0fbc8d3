(** Extension: message transport at fabric scale, on the leaf-spine
    build that is also the flagship intra-scenario parallel exhibit.

    Every host (l, i) of an L-leaf Clos runs closed-loop messages to
    host ((l+1) mod L, i).  With TCP, ECMP pins each long-lived flow to
    one spine: hash collisions leave some uplinks overloaded while
    others idle.  With MTP, every message is its own flow-hash unit,
    so the same ECMP fabric spreads load at message granularity, and
    per-pathlet windows keep congestion state per spine.

    Every run is one partition per leaf ([Netsim.Partition] driven by
    [Runner.Epoch]), so one scenario uses [jobs] cores with a
    byte-identical {!output.digest} for any [jobs] value. *)

type scheme =
  | Dctcp_flows
      (** One persistent DCTCP connection per pair from a random
          source port; a message is the next [message_bytes] of the
          stream, timed at the receiver between boundaries. *)
  | Dctcp_messages  (** One DCTCP connection per message. *)
  | Mtp  (** MTP messages, each (leaf, spine) uplink its own pathlet. *)

type config = {
  leaves : int;
  spines : int;
  hosts_per_leaf : int;
  message_bytes : int;
  duration : Engine.Time.t;
  scheme : scheme;
}

val default : config
(** par-leafspine's: 4 leaves x 4 spines x 8 hosts/leaf, 100 kB DCTCP
    messages, 4 ms. *)

type output = {
  digest : string;
      (** Canonical all-integer rendering of the final state (per-leaf
          workload counters, per-link/switch/host counters,
          per-partition end times): the jobs-invariance witness. *)
  goodput_gbps : float;
  uplink_imbalance : float;
      (** Worst max/min bytes over one leaf's uplinks. *)
  p99_fct_us : float;
  messages : int;
  events : int;  (** Total events executed across all partitions. *)
}

val run : ?jobs:int -> config -> output
(** @raise Invalid_argument below 2 leaves (one partition per leaf). *)

val result : unit -> Exp_common.result
(** DCTCP flows vs MTP messages on 4 leaves x 2 spines x 4 hosts,
    250 kB messages, 10 ms: goodput, uplink imbalance, p99 FCT. *)

val par_result : ?jobs:int -> ?config:config -> unit -> Exp_common.result
(** One [config] run on [jobs] workers: messages, goodput, p99 FCT
    and events. *)
