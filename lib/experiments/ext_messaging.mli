(** Extension: the same closed-loop message workload driven over every
    transport in the repo (TCP, DCTCP, UDP, proxied TCP, MTP) through
    the unified {!Netsim.Transport_intf.S} interface — the experiment
    code is identical per transport; only setup differs. *)

type config = {
  rate : Engine.Time.rate;
  delay : Engine.Time.t;
  msg_size : int;
  parallel : int;  (** Concurrent closed-loop chains. *)
  duration : Engine.Time.t;
}

val default : config

type row = {
  r_id : string;
  r_sent : int;
  r_rx_messages : int;
  r_goodput_gbps : float;
  r_mean_fct_us : float;
  r_retransmits : int;
  r_unclaimed : int;
}

type output = { rows : row list }

val result : ?config:config -> unit -> Exp_common.result
