(** Ablation: end-host path exclusion (paper §3.1.3).

    "MTP has end-hosts provide feedback to the network about the
    pathlets that should not be used."  Two equal paths; an interferer
    floods one of them.  Messages are ECMP-spread across both ports.
    Without exclusion, half the messages land on the flooded path and
    crawl; with exclusion, senders that saw congestion feedback list
    the hot pathlet in their headers and the switch steers them to the
    clean path. *)

type variant_out = {
  mean_fct_us : float;
  p99_fct_us : float;
  retransmits : int;  (** Losses suffered on the flooded path. *)
}

type output = {
  without_exclusion : variant_out;
  with_exclusion : variant_out;
}

val run : ?duration:Engine.Time.t -> unit -> output

val result : unit -> Exp_common.result
