(** Paper Fig. 2: TCP termination's buffering / HOL-blocking trade-off.

    A proxy terminates TCP between a 100 Gbps client link and a
    40 Gbps server link.  With an unlimited advertised window the proxy
    absorbs the rate mismatch in its own memory — buffer occupancy
    grows without bound for as long as the flow lasts.  Limiting the
    window bounds the buffer but throttles the fast client to the slow
    link via zero-window stalls (receive-window head-of-line
    blocking). *)

type config = {
  front_rate : Engine.Time.rate;
  back_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;
  rwnd_limit : int;  (** Window/relay cap of the limited variant. *)
  duration : Engine.Time.t;
  sample_interval : Engine.Time.t;
}

val default : config

type output = {
  unlimited_buffer : Stats.Timeseries.t;  (** Proxy bytes over time. *)
  limited_buffer : Stats.Timeseries.t;
  unlimited_max_buffer : int;
  limited_max_buffer : int;
  unlimited_client_gbps : float;
  limited_client_gbps : float;
  limited_stall : Engine.Time.t;  (** Client zero-window stall time. *)
  growth_rate_gbps : float;
      (** Measured growth slope of the unlimited buffer — should track
          [front - back] rate. *)
}

val run : ?config:config -> unit -> output

val result : ?config:config -> unit -> Exp_common.result
