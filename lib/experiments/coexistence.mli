(** Paper §4, "Interaction with TCP": MTP must coexist with legacy TCP
    traffic.  One DCTCP flow and one MTP message stream (DCTCP-style
    controller) share an ECN bottleneck; both react to the same marks,
    so neither should starve the other.  Also exercises the ablation of
    disabling MTP's path exclusion: on a single path it must make no
    difference. *)

type output = {
  tcp_gbps : float;
  mtp_gbps : float;
  jain_fairness : float;
      (** Jain's index over the two shares; 1.0 = perfectly fair. *)
}

val run : ?duration:Engine.Time.t -> unit -> output

val result : unit -> Exp_common.result
