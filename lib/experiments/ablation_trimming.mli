(** Ablation: NDP-style packet trimming (paper §4, "NDP").

    "By design, implementing NDP in MTP is simple … switches generate
    NACKs to implement packet trimming."  An incast — many senders
    bursting into one shallow egress queue — is the stress case: with a
    drop-tail queue, losses surface only at retransmission timeouts;
    with a trimming queue, every overload becomes an immediate
    header + NACK and recovery is RTT-scale. *)

type variant_out = {
  completion_us : float;  (** Last message completion. *)
  p99_fct_us : float;
  timeouts : int;
  nacks : int;
  drops : int;
}

type output = { droptail : variant_out; trimming : variant_out }

val run : unit -> output
(** 16 senders each send one 8 KB message into a 16-packet egress
    queue, once drop-tail and once trimming. *)

val result : unit -> Exp_common.result
