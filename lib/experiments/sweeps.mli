(** Parameter sweeps around the paper's headline figures.

    The paper shows single operating points; these sweeps trace how the
    comparisons evolve with the key knob of each experiment, which is
    where the design arguments actually live:

    - {!fig5_sweep_jobs}: MTP's advantage over a single-window DCTCP
      grows as path alternation gets faster relative to convergence
      time, and vanishes when flips are slow;
    - {!fig6_sweep_jobs}: the gap between message-aware placement and
      ECMP/spraying widens with offered load, spraying degrading
      fastest (reordering costs scale with queueing).

    Each sweep is one {!Exp_common.grid}: every cell (point [i],
    replication [r]) is a closed job, and the trailing barrier passes
    the rows, in point order, to [emit] — byte-identical for any
    [jobs].  Run a sweep with {!Exp_common.run_jobs} (alone or
    concatenated with other grids) or {!Exp_common.collect}; render
    its rows with the matching [_rows_result].

    The fig5 sweep draws no random numbers, so it has one cell per
    point and no seed.  The fig6 sweep's cell seeds are SplitMix64
    stream splits of the base seed 42 ({!Engine.Rng.derive}): with [reps = 1]
    (the default) the cell seed is [derive base i], and with
    [reps > 1] cell [(i, r)] uses [derive (derive base i) r] and each
    row reports the per-point mean across replications. *)

type config = {
  reps : int;  (** Replications per fig6 point. *)
  fig5_duration : Engine.Time.t;
  fig6_duration : Engine.Time.t;
}

val default : config
(** 1 rep, 6 ms fig5 and 80 ms fig6 cells: the [_jobs] defaults. *)

type fig5_row = {
  flip_us : int;
  dctcp_gbps : float;
  mtp_gbps : float;
  ratio : float;
}

val fig5_sweep_jobs :
  ?flips_us:int list -> ?duration:Engine.Time.t ->
  emit:(fig5_row list -> unit) -> unit -> Exp_common.job list

val fig5_rows_result : fig5_row list -> Exp_common.result

type fig6_row = {
  load : float;
  ecmp_p50_us : float;
  ecmp_p99_us : float;
  spray_p50_us : float;
  spray_p99_us : float;
  mtp_p50_us : float;
  mtp_p99_us : float;
}

val fig6_sweep_jobs :
  ?loads:float list -> ?reps:int -> ?duration:Engine.Time.t ->
  emit:(fig6_row list -> unit) -> unit -> Exp_common.job list

val fig6_rows_result : ?reps:int -> fig6_row list -> Exp_common.result
(** With [reps > 1] the result notes that each row is a mean of [reps]
    seed replications. *)
