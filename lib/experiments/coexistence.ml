type output = { tcp_gbps : float; mtp_gbps : float; jain_fairness : float }

let run ?(duration = Engine.Time.ms 20) () =
  let rate = Engine.Time.gbps 10 in
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let db =
    Netsim.Topology.dumbbell topo ~n:2 ~edge_rate:(2 * rate)
      ~bottleneck_rate:rate ~delay:(Engine.Time.us 5)
      ~bottleneck_qdisc:(Netsim.Qdisc.ecn ~cap_pkts:256 ~mark_threshold:30 ())
      ()
  in
  (* Pair 0: legacy DCTCP.  Pair 1: MTP.  Both see the same CE marks
     (the MTP stamper reports the IP CE bit as pathlet feedback). *)
  Mtp.Mtp_switch.stamp sim db.Netsim.Topology.db_bottleneck ~path_id:1
    ~mode:Mtp.Mtp_switch.Ce_echo;
  let tcp_meter = Stats.Meter.create sim ~interval:(Engine.Time.us 100) () in
  let mtp_meter = Stats.Meter.create sim ~interval:(Engine.Time.us 100) () in
  let tcp_client =
    Transport.Dctcp.attach ~snd_buf:500_000
      (Netsim.Host.create db.Netsim.Topology.db_senders.(0))
  in
  let tcp_server =
    Transport.Dctcp.attach
      (Netsim.Host.create db.Netsim.Topology.db_receivers.(0))
  in
  Transport.Dctcp.Messaging.listen tcp_server ~port:80
    ~on_data:(Stats.Meter.count_bytes tcp_meter) ();
  ignore
    (Transport.Tcp.stream tcp_client
       ~dst:(Netsim.Node.addr db.Netsim.Topology.db_receivers.(0))
       ~dst_port:80 ());
  let ea =
    Mtp.Endpoint.attach (Netsim.Host.create db.Netsim.Topology.db_senders.(1))
  in
  let eb =
    Mtp.Endpoint.attach
      (Netsim.Host.create db.Netsim.Topology.db_receivers.(1))
  in
  Mtp.Endpoint.Messaging.listen eb ~port:80
    ~on_data:(Stats.Meter.count_bytes mtp_meter) ();
  ignore
    (Workload.Driver.closed_loop ~parallel:2 ~size:250_000
       (fun ~size ~on_complete ->
         ignore
           (Mtp.Endpoint.send ea
              ~dst:(Netsim.Node.addr db.Netsim.Topology.db_receivers.(1))
              ~dst_port:80 ~on_complete ~size ())));
  Engine.Sim.run ~until:duration sim;
  Stats.Meter.stop tcp_meter;
  Stats.Meter.stop mtp_meter;
  let steady m =
    Exp_common.mean_between (Stats.Meter.series m) ~lo:(duration / 4)
      ~hi:duration
  in
  let tcp_gbps = steady tcp_meter and mtp_gbps = steady mtp_meter in
  let jain =
    let s = tcp_gbps +. mtp_gbps in
    s *. s /. (2.0 *. ((tcp_gbps *. tcp_gbps) +. (mtp_gbps *. mtp_gbps)))
  in
  { tcp_gbps; mtp_gbps; jain_fairness = jain }

let result () =
  let o = run () in
  let table =
    Stats.Table.create ~columns:[ "flow"; "goodput (Gbps)" ]
  in
  Stats.Table.add_rowf table "legacy DCTCP | %.2f" o.tcp_gbps;
  Stats.Table.add_rowf table "MTP stream | %.2f" o.mtp_gbps;
  Exp_common.make
    ~title:"Discussion: MTP coexisting with legacy DCTCP on one bottleneck"
    ~table
    ~notes:
      [ Printf.sprintf "Jain fairness index %.3f (1.0 = equal shares)"
          o.jain_fairness ]
    ()
