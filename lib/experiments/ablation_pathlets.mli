(** Ablation: pathlet granularity (paper §4, "Pathlet ID Choice").

    The paper notes that a single pathlet makes MTP behave like TCP,
    while per-resource pathlets give precise feedback at higher
    overhead.  This ablation reruns the Fig. 5 alternating-path
    scenario with both extremes: one pathlet id covering both links
    (coarse) versus one id per link (fine).  The coarse configuration
    collapses to DCTCP-like behaviour — the windows of the two paths
    are merged — quantifying exactly what the pathlet abstraction
    buys. *)

type output = {
  single_pathlet_gbps : float;
  per_link_pathlets_gbps : float;
  benefit : float;  (** fine / coarse goodput. *)
}

val run : ?duration:Engine.Time.t -> unit -> output

val result : unit -> Exp_common.result
