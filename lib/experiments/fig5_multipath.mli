(** Paper Fig. 5 (§5.1): multipath congestion control under path
    alternation.

    A fast (100 Gbps) and a slow (10 Gbps) path connect one sender to
    one receiver; the first-hop switch alternates between them every
    384 us (an optical switch / dynamic load balancer).  Links have
    1 us delay, 128-packet buffers and an ECN threshold of 20 packets;
    throughput is sampled every 32 us.

    DCTCP keeps a single window: after every flip it is mis-sized for
    the new path — too big for the slow path (marks, backlog), too
    small for the fast one (underutilization) — and never converges.
    MTP keeps one window per pathlet, learns which pathlet carried
    each packet from the stamped feedback, and resumes each path at its
    remembered operating point.  The paper reports ~33% higher average
    goodput for MTP. *)

type config = {
  fast_rate : Engine.Time.rate;
  slow_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;  (** Paper: 1 us. *)
  buffer_pkts : int;  (** Paper: 128. *)
  ecn_threshold : int;  (** Paper: 20. *)
  flip_interval : Engine.Time.t;  (** Paper: 384 us. *)
  sample_interval : Engine.Time.t;  (** Paper: 32 us. *)
  duration : Engine.Time.t;
}

val default : config

type output = {
  dctcp : Stats.Timeseries.t;  (** Goodput in Gbps per sample. *)
  mtp : Stats.Timeseries.t;
  dctcp_mean : float;
  mtp_mean : float;
  improvement : float;  (** [mtp_mean / dctcp_mean]. *)
}

val run : ?config:config -> unit -> output

val result : ?config:config -> unit -> Exp_common.result
