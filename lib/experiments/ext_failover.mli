(** Extension experiment: mid-transfer link failure and recovery,
    TCP vs DCTCP vs MTP (with and without pathlet exclusion).

    Two parallel full-rate paths carry a fixed open-loop message load
    below single-path capacity.  One path fails mid-run and later
    revives; routing withdraws/restores its port only after a
    detection delay.  Reported per scheme: pre-failure goodput, the
    goodput floor during the outage, and the time from failure to the
    first sample back at 90% of the pre-failure mean.  MTP with
    exclusion recovers in RTO-scale time (suspect pathlet, header
    exclusion steers around it); TCP and exclusion-less MTP wait for
    routing reconvergence. *)

type config = {
  path_rate : Engine.Time.rate;  (** Each of the two paths. *)
  edge_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;
  buffer_pkts : int;
  ecn_threshold : int;
  msg_size : int;
  msg_interval : Engine.Time.t;
      (** One message per interval: offered load = size/interval. *)
  sample_interval : Engine.Time.t;
  t_fail : Engine.Time.t;  (** Path A goes down. *)
  t_restore : Engine.Time.t;  (** Path A comes back. *)
  detect : Engine.Time.t;  (** Routing reconvergence delay. *)
  duration : Engine.Time.t;
}

val default : config
(** 2 x 100G paths, 80G offered (100 KB every 10 us), failure at 10 ms,
    restore at 20 ms, 5 ms detection, 30 ms run. *)

val smoke : config
(** The same fabric and load on a shorter timeline: failure at 5 ms,
    restore at 11 ms, 3 ms detection, 16 ms run. *)

type scheme = {
  s_label : string;
  s_series : Stats.Timeseries.t;
  s_pre_gbps : float;  (** Mean goodput over the pre-failure window. *)
  s_dip_gbps : float;  (** Goodput floor during the outage. *)
  s_recovery : Engine.Time.t option;
      (** Failure instant to the first sample back at >= 90% of the
          pre-failure mean; [None] if never within the run. *)
}

type output = { schemes : scheme list }

val jobs : ?config:config -> emit:(output -> unit) -> unit -> Exp_common.job list
(** The experiment as an {!Exp_common.grid}: one job per scheme plus a
    barrier that passes the four schemes, in order, to [emit].  The
    output is byte-identical for any [jobs]. *)

val recovery_of : output -> string -> Engine.Time.t option
(** Recovery time of the scheme with this label, if it recovered. *)

val assemble : config -> output -> Exp_common.result
(** The table, series and notes of one run under [config]. *)
