(** Ablation: multi-algorithm congestion control (paper §2.2 / §4).

    MTP's TLV feedback lets each resource speak its own dialect; the
    paper claims DCTCP-, RCP- and Swift-style controllers can all be
    expressed (§4: "if the network is a single pathlet, MTP can behave
    as existing congestion control algorithms").  This harness runs the
    same single-bottleneck transfer under each controller with its
    matching feedback stamp and reports goodput, queueing, and losses —
    each algorithm should drive the link well while keeping its own
    signature (RCP: rate-held queue; Swift: delay-bounded queue;
    AIMD: sawtooth filling the buffer). *)

type algo_out = {
  name : string;
  goodput_gbps : float;
  mean_queue_pkts : float;
  max_queue_pkts : int;
  drops : int;
  retransmits : int;
}

val run : ?duration:Engine.Time.t -> unit -> algo_out list

val result : unit -> Exp_common.result
