(** Flagship intra-scenario parallel exhibit: one leaf-spine fabric
    under closed-loop permutation messaging, run on the partitioned
    world ([Netsim.Partition] driven by [Runner.Epoch]) so a single
    scenario uses multiple cores with a byte-identical {!output.digest}
    for any [jobs] value. *)

type transport = Dctcp | Mtp

type config = {
  leaves : int;
  spines : int;
  hosts_per_leaf : int;
  message_bytes : int;
  duration : Engine.Time.t;
  transport : transport;
}

val default : config
(** 4 leaves x 4 spines x 8 hosts/leaf, 100 kB DCTCP messages, 4 ms. *)

type output = {
  digest : string;
      (** Canonical all-integer rendering of the final state
          (per-partition workload counters, per-link/switch counters,
          per-partition end times) — the jobs-invariance witness. *)
  goodput_gbps : float;
  p99_fct_us : float;
  messages : int;
  events : int;  (** Total events executed across all partitions. *)
}

val run : ?jobs:int -> config -> output

val result : ?jobs:int -> ?config:config -> unit -> Exp_common.result
