(** Message-size distributions used by the paper's experiments. *)

val paper_mix : Dist.t
(** The Fig. 6 workload: 10 KB – 1 GB, "skewed toward short messages
    as per existing studies \[DCTCP\]": a log-normal body with a heavy
    tail, clamped to the stated range.  Most messages are tens of KB;
    rare ones reach hundreds of MB. *)

val paper_mix_capped : max:int -> Dist.t
(** Same shape with a smaller maximum, for quick runs. *)

val fixed : int -> Dist.t
(** Constant size in bytes. *)
