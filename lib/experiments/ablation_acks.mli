(** Ablation: feedback aggregation (paper §4, "Packet Header
    Overheads": "feedback can be aggregated, and feedback can be
    selectively returned").

    The same bulk transfer runs with per-packet acknowledgements and
    with SACK coalescing at several aggregation factors.  Aggregation
    divides the reverse-path packet count with no goodput loss (the
    congestion feedback still arrives every ack). *)

type row = {
  ack_every : int;
  goodput_gbps : float;
  acks : int;
  acks_per_data_pkt : float;
}

val result : unit -> Exp_common.result
