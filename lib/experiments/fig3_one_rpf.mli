(** Paper Fig. 3: one message per flow breaks congestion control.

    Four hosts on a 100 Gbps dumbbell each send 16 KB messages, opening
    a fresh TCP connection for every message.  Every transfer pays a
    handshake and restarts from the initial window, so no usable
    congestion state ever accumulates: aggregate throughput is noisy
    and far below capacity.  For contrast, the harness also runs the
    same offered pattern over persistent TCP connections (many requests
    per flow) and over MTP messages (no connections at all). *)

type config = {
  hosts : int;
  message_bytes : int;
  link_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;
  chains_per_host : int;  (** Concurrent closed-loop chains per host. *)
  duration : Engine.Time.t;
  sample_interval : Engine.Time.t;  (** Paper: 32 us. *)
}

val default : config

type output = {
  one_rpf : Stats.Timeseries.t;  (** Aggregate goodput, Gbps. *)
  persistent : Stats.Timeseries.t;
  mtp : Stats.Timeseries.t;
  one_rpf_mean : float;
  one_rpf_cv : float;  (** Coefficient of variation — the "noise". *)
  persistent_mean : float;
  persistent_cv : float;
  mtp_mean : float;
  mtp_cv : float;
}

val run : ?config:config -> unit -> output

val result : ?config:config -> unit -> Exp_common.result
