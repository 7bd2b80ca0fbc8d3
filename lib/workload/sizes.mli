(** Message-size distributions used by the paper's experiments. *)

val paper_mix_capped : max:int -> Dist.t
(** The Fig. 6 workload: "skewed toward short messages as per existing
    studies \[DCTCP\]": a log-normal body with a heavy tail, clamped
    to \[10 KB, [max]\] bytes.  Most messages are tens of KB; at the
    paper's [max] of 1 GB rare ones reach hundreds of MB. *)

val fixed : int -> Dist.t
(** Constant size in bytes. *)
