(** Extension: incast / RPC fan-out at fabric scale.

    One aggregator host in a k-ary {!Netsim.Topology.fat_tree}
    collects a fixed-size response from [fanout] senders spread across
    the fabric, all transmitted at t=0 — the partition/aggregate
    pattern whose synchronized fan-in collapses TCP.  TCP, DCTCP and
    MTP run through the unified {!Netsim.Transport_intf} driver
    (DCTCP/MTP fabrics mark ECN; TCP runs over plain FIFO queues).

    Reported per scheme: completed responses, p50/p99 response FCT,
    time to collect the whole fan-in, and sender retransmits. *)

type config = {
  k : int;  (** Fat-tree arity (even); [k³/4] hosts. *)
  fanout : int;  (** Number of responders ([<= k³/4 - 1]). *)
  resp_bytes : int;
  duration : Engine.Time.t;
}

val default : config
(** k=8 (128 hosts), 48 responders of 50 KB, 50 ms. *)

val smoke : config
(** k=4 (16 hosts), 12 responders — the [--smoke] configuration. *)

type row = {
  r_id : string;
  r_completed : int;  (** Responses fully delivered to the aggregator. *)
  r_p50_fct_us : float;
  r_p99_fct_us : float;
  r_collect_us : float;
      (** Arrival time of the last response ([nan] until all arrive). *)
  r_retransmits : int;
}

type output = { cfg : config; rows : row list }

val result : ?config:config -> unit -> Exp_common.result
