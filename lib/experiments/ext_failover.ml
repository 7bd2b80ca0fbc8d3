(* Extension: link-failure recovery, TCP vs MTP (robustness tentpole).

   Fig. 5's two-path fabric, both paths at full rate, carrying a fixed
   80% offered load of 100 KB messages.  Mid-run one path fails, then
   revives; routing reconverges only after a detection delay, the way
   a real fabric's failure detector would.  The open-loop load sits
   below single-path capacity, so every scheme *can* regain its
   pre-failure goodput over the surviving path — what differs is how
   long each takes to notice and move:

   - TCP/DCTCP (one connection per message, static routes) wait out
     RTO backoff until routing reconverges: recovery ~ detect + RTOs.
   - MTP without sender-side exclusion still steers per-flow into the
     dead path until reconvergence.
   - MTP with exclusion marks the dead pathlet suspect after a few
     consecutive RTOs and its headers steer every packet around it at
     the switch — recovery happens in RTO-scale time, no routing
     protocol involved (paper §3.1.3's pathlet failover argument). *)

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

let default =
  { path_rate = Engine.Time.gbps 100; edge_rate = Engine.Time.gbps 200;
    link_delay = Engine.Time.us 1; buffer_pkts = 128; ecn_threshold = 20;
    msg_size = 100_000; msg_interval = Engine.Time.us 10;
    sample_interval = Engine.Time.us 100; t_fail = Engine.Time.ms 10;
    t_restore = Engine.Time.ms 20; detect = Engine.Time.ms 5;
    duration = Engine.Time.ms 30 }

let smoke =
  { default with
    t_fail = Engine.Time.ms 5; detect = Engine.Time.ms 3;
    t_restore = Engine.Time.ms 11; duration = Engine.Time.ms 16 }

let port = 80

(* Topology plus the one fault plan every scheme faces: path A down at
   [t_fail], up at [t_restore], routing withdrawing/restoring its port
   a [detect] delay behind each transition. *)
let build cfg ~qdisc_a ~qdisc_b =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let tp =
    Netsim.Topology.two_path topo ~rate_a:cfg.path_rate ~rate_b:cfg.path_rate
      ~delay_a:cfg.link_delay ~delay_b:cfg.link_delay ~edge_rate:cfg.edge_rate
      ~qdisc_a ~qdisc_b ()
  in
  let fault = Netsim.Fault.plan sim in
  Netsim.Fault.link_down fault ~at:cfg.t_fail tp.Netsim.Topology.tp_link_a;
  Netsim.Fault.link_up fault ~at:cfg.t_restore tp.Netsim.Topology.tp_link_a;
  Netsim.Fault.reroute fault tp.Netsim.Topology.tp_routes
    ~port:tp.Netsim.Topology.tp_port_a ~detect:cfg.detect
    tp.Netsim.Topology.tp_link_a;
  let meter = Stats.Meter.create sim ~interval:cfg.sample_interval () in
  (sim, tp, fault, meter)

(* Open-loop driver through the packed transport interface: one
   [msg_size] message every [msg_interval], regardless of completions,
   so offered load stays constant through the outage. *)
let drive cfg sim meter ~client ~server ~dst =
  let module T = Netsim.Transport_intf in
  T.listen server ~port ~on_data:(Stats.Meter.count_bytes meter) ();
  Engine.Sim.periodic sim ~interval:cfg.msg_interval (fun () ->
      T.send_message client ~dst ~dst_port:port ~size:cfg.msg_size ();
      Engine.Sim.now sim + cfg.msg_interval < cfg.duration);
  Engine.Sim.run ~until:cfg.duration sim;
  Stats.Meter.stop meter;
  Stats.Meter.series meter

let run_tcp cfg =
  let sim, tp, _, meter =
    build cfg
      ~qdisc_a:(Netsim.Qdisc.fifo ~cap_pkts:cfg.buffer_pkts ())
      ~qdisc_b:(Netsim.Qdisc.fifo ~cap_pkts:cfg.buffer_pkts ())
  in
  let client =
    Netsim.Transport_intf.pack
      (module Transport.Tcp.Messaging)
      (Transport.Tcp.attach
         (Netsim.Host.create tp.Netsim.Topology.tp_src))
  in
  let server =
    Netsim.Transport_intf.pack
      (module Transport.Tcp.Messaging)
      (Transport.Tcp.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst))
  in
  drive cfg sim meter ~client ~server
    ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)

let run_dctcp cfg =
  let qdisc () =
    Netsim.Qdisc.ecn ~cap_pkts:cfg.buffer_pkts
      ~mark_threshold:cfg.ecn_threshold ()
  in
  let sim, tp, _, meter = build cfg ~qdisc_a:(qdisc ()) ~qdisc_b:(qdisc ()) in
  let client =
    Netsim.Transport_intf.pack
      (module Transport.Dctcp.Messaging)
      (Transport.Dctcp.attach
         (Netsim.Host.create tp.Netsim.Topology.tp_src))
  in
  let server =
    Netsim.Transport_intf.pack
      (module Transport.Dctcp.Messaging)
      (Transport.Dctcp.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst))
  in
  drive cfg sim meter ~client ~server
    ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)

let run_mtp cfg ~exclusion =
  let sim, tp, _, meter =
    build cfg
      ~qdisc_a:(Netsim.Qdisc.fifo ~cap_pkts:cfg.buffer_pkts ())
      ~qdisc_b:(Netsim.Qdisc.fifo ~cap_pkts:cfg.buffer_pkts ())
  in
  (* Pathlet identity comes from the stamping wrappers; the ingress
     honours header path-exclude lists (ECMP otherwise). *)
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_a ~path_id:1
    ~mode:(Mtp.Mtp_switch.Ecn_mark cfg.ecn_threshold);
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_b ~path_id:2
    ~mode:(Mtp.Mtp_switch.Ecn_mark cfg.ecn_threshold);
  Netsim.Switch.set_forward tp.Netsim.Topology.tp_ingress
    (Mtp.Mtp_switch.exclusion_aware
       ~port_paths:
         [ (tp.Netsim.Topology.tp_port_a, 1);
           (tp.Netsim.Topology.tp_port_b, 2) ]
       tp.Netsim.Topology.tp_routes);
  let client =
    Netsim.Transport_intf.pack
      (module Mtp.Endpoint.Messaging)
      (Mtp.Endpoint.attach ~exclusion
         (Netsim.Host.create tp.Netsim.Topology.tp_src))
  in
  let server =
    Netsim.Transport_intf.pack
      (module Mtp.Endpoint.Messaging)
      (Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst))
  in
  drive cfg sim meter ~client ~server
    ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)

(* ---------------------------- metrics ------------------------------ *)

type scheme = {
  s_label : string;
  s_series : Stats.Timeseries.t;
  s_pre_gbps : float;  (** Mean goodput over the pre-failure window. *)
  s_dip_gbps : float;  (** Goodput floor during the outage. *)
  s_recovery : Engine.Time.t option;
      (** Failure instant to the first sample back at >= 90% of the
          pre-failure mean; [None] if never within the run. *)
}

(* Meter samples are stamped at interval end, so a sample labelled
   [t <= t_fail] is entirely pre-failure and [t > t_fail] is the
   post-failure record (exact when [t_fail] is a sample boundary). *)
let measure cfg label series =
  let pre =
    Exp_common.mean_between series ~lo:(cfg.t_fail / 2) ~hi:cfg.t_fail
  in
  let after =
    List.filter
      (fun (t, _) -> t > cfg.t_fail)
      (Stats.Timeseries.points series)
  in
  let dip =
    List.fold_left
      (fun acc (t, v) -> if t <= cfg.t_restore then Float.min acc v else acc)
      infinity after
  in
  let recovery =
    List.find_map
      (fun (t, v) ->
        if v >= 0.9 *. pre then Some (t - cfg.t_fail) else None)
      after
  in
  { s_label = label; s_series = series; s_pre_gbps = pre;
    s_dip_gbps = (if dip = infinity then 0.0 else dip);
    s_recovery = recovery }

type output = { schemes : scheme list }

(* The four schemes face the same topology, load and fault plan but
   are otherwise independent simulations: one grid job per scheme,
   the schemes emitted in list order whatever [jobs] is. *)
let jobs ?(config = default) ~emit () =
  Exp_common.grid
    ~points:
      [ ("TCP", fun () -> run_tcp config);
        ("DCTCP", fun () -> run_dctcp config);
        ("MTP (no exclusion)", fun () -> run_mtp config ~exclusion:false);
        ("MTP (pathlet exclusion)", fun () -> run_mtp config ~exclusion:true) ]
    ~cell:(fun _ _ (label, scheme_run) -> measure config label (scheme_run ()))
    ~reduce:(fun _ outs -> List.hd outs)
    ~emit:(fun schemes -> emit { schemes })
    ()

let recovery_of o label =
  List.find_map
    (fun s -> if s.s_label = label then s.s_recovery else None)
    o.schemes

let ms t = Engine.Time.to_float_us t /. 1_000.0

let assemble cfg o =
  let table =
    Stats.Table.create
      ~columns:
        [ "scheme"; "pre-fail (Gbps)"; "dip (Gbps)"; "recovery (ms)" ]
  in
  List.iter
    (fun s ->
      Stats.Table.add_rowf table "%s | %.1f | %.1f | %s" s.s_label
        s.s_pre_gbps s.s_dip_gbps
        (match s.s_recovery with
        | Some t -> Printf.sprintf "%.2f" (ms t)
        | None -> "never"))
    o.schemes;
  let note =
    match
      (recovery_of o "MTP (pathlet exclusion)", recovery_of o "TCP")
    with
    | Some m, Some t ->
      Printf.sprintf
        "MTP with pathlet exclusion regained 90%% of pre-failure goodput \
         in %.2f ms vs TCP's %.2f ms (routing reconvergence at %.0f ms)"
        (ms m) (ms t)
        (ms cfg.detect)
    | Some m, None ->
      Printf.sprintf
        "MTP with pathlet exclusion recovered in %.2f ms; TCP never \
         recovered within the run"
        (ms m)
    | None, _ -> "MTP with pathlet exclusion did not recover within the run"
  in
  Exp_common.make
    ~title:
      "Extension: mid-transfer link failure, TCP vs MTP pathlet failover \
       (two 100G paths, 80G offered load)"
    ~series:
      (List.map
         (fun s ->
           { Exp_common.label = s.s_label ^ " goodput (Gbps)";
             data = s.s_series })
         o.schemes)
    ~table
    ~notes:
      [ note;
        "TCP and MTP-without-exclusion wait for routing reconvergence; \
         exclusion-carrying MTP headers steer around the dead pathlet \
         after suspect_after consecutive RTOs" ]
    ()
