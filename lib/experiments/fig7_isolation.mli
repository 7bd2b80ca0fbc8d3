(** Paper Fig. 7 (§5.3): per-entity isolation.

    Two tenants share a 100 Gbps / 10 us link through a common switch;
    tenant 2 generates 8x the traffic sources of tenant 1.  Three
    systems:

    - {b DCTCP, shared queue}: per-flow fairness gives tenant 2 ~8/9 of
      the link (the paper's ~80 vs ~10 Gbps);
    - {b DCTCP, per-tenant queues}: weighted queues equalize the
      tenants but cost one queue per entity;
    - {b MTP, shared queue + fair marking}: the switch counts queue
      occupancy per entity (every MTP packet carries provenance) and
      CE-marks only the over-share tenant — equal sharing without
      separate queues. *)

type config = {
  link_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;  (** Paper: 10 us. *)
  tenant2_sources : int;  (** Paper: 8x tenant 1's single source. *)
  buffer_pkts : int;
  ecn_threshold : int;
  duration : Engine.Time.t;
  sample_interval : Engine.Time.t;
}

val default : config

type system_out = {
  tenant1_gbps : float;
  tenant2_gbps : float;
  tenant1_series : Stats.Timeseries.t;
  tenant2_series : Stats.Timeseries.t;
}

type output = {
  shared_queue : system_out;  (** DCTCP baseline. *)
  per_tenant_queues : system_out;
  mtp_fair_shared : system_out;
}

val run : ?config:config -> unit -> output

val result : ?config:config -> unit -> Exp_common.result
