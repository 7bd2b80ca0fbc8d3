(** Network-device side of MTP (paper §3.1.3).

    Switches participate in pathlet congestion control by stamping
    [(path id, TC, feedback)] entries into the headers of MTP data
    packets as they enter an egress queue.  Different links can stamp
    different feedback types — that is the multi-algorithm property.
    This module also provides the multipath forwarding behaviours the
    evaluation uses: timed path alternation (Fig. 5), message-granular
    load balancing (Fig. 6), and exclusion-aware route choice. *)

type stamp_mode =
  | Ecn_mark of int
      (** DCTCP-style: [Ecn true] when the instantaneous queue is at or
          above the threshold (in packets), [Ecn false] otherwise. *)
  | Ce_echo
      (** Report the packet's CE bit as set by the queue itself — used
          with policy queues like {!Netsim.Qdisc.fair_mark} that decide
          marking per entity. *)
  | Queue_depth  (** Report the queue depth in packets. *)
  | Delay_report
      (** Report the queueing delay implied by the queued bytes. *)
  | Rate_grant of { capacity : Engine.Time.rate }
      (** RCP-style explicit rate, recomputed periodically from
          measured arrivals and queue backlog. *)

val stamp :
  Engine.Sim.t ->
  Netsim.Link.t ->
  path_id:int ->
  mode:stamp_mode ->
  unit
(** Wrap the link's qdisc so every MTP data packet enqueued gets a
    feedback entry for pathlet [path_id] with the packet's own traffic
    class.  Trimmed packets additionally get {!Feedback.Trimmed}.
    Install after the link's final qdisc is in place. *)

val alternate_path :
  Engine.Sim.t ->
  Netsim.Switch.t ->
  dst:Netsim.Packet.addr ->
  ports:int array ->
  interval:Engine.Time.t ->
  fallback:(Netsim.Packet.t -> Netsim.Switch.action) ->
  unit
(** Forward [dst]'s packets to [ports.(i)], advancing [i] cyclically
    every [interval] (the optical-switch scenario of Fig. 5).  Other
    packets use [fallback]. *)

val exclusion_aware :
  port_paths:(int * int) list ->
  Netsim.Routing.t ->
  Netsim.Packet.t ->
  Netsim.Switch.action
(** Forwarding like {!Netsim.Routing.ecmp} but honouring the header's
    path-exclude list: among the destination's ports, prefer ones whose
    pathlet (per [port_paths]: [(port, path_id)] pairs) is not
    excluded by the packet. *)

type msg_lb
(** Message-granularity load balancer state (Fig. 6): each message is
    atomically assigned to the path with the least outstanding
    committed bytes, using the message length announced in the first
    packet's header — no reordering, load-proportional placement. *)

val msg_lb :
  Netsim.Switch.t ->
  dst:Netsim.Packet.addr ->
  ports:int array ->
  fallback:(Netsim.Packet.t -> Netsim.Switch.action) ->
  msg_lb
(** Install as the switch's forwarding function. *)

val lb_assignments : msg_lb -> int array
(** Messages assigned per port so far. *)
