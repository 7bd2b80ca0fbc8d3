type algo_out = {
  name : string;
  goodput_gbps : float;
  mean_queue_pkts : float;
  max_queue_pkts : int;
  drops : int;
  retransmits : int;
}

let variants rate =
  [ ("AIMD + ECN", Mtp.Cc.Aimd, Mtp.Mtp_switch.Ecn_mark 20);
    ("DCTCP + ECN", Mtp.Cc.Dctcp, Mtp.Mtp_switch.Ecn_mark 20);
    ("RCP + rate grants", Mtp.Cc.Rcp,
     Mtp.Mtp_switch.Rate_grant { capacity = rate });
    ("Swift + delay", Mtp.Cc.Swift,
     Mtp.Mtp_switch.Delay_report) ]

let run_variant ~rate ~duration (name, algo, mode) =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.host topo "a" in
  let b = Netsim.Topology.host topo "b" in
  let qd = Netsim.Qdisc.fifo ~cap_pkts:256 () in
  let ab, _ =
    Netsim.Topology.wire_host_pair topo a b ~rate ~delay:(Engine.Time.us 5)
      ~ab_qdisc:qd ()
  in
  Mtp.Mtp_switch.stamp sim ab ~path_id:1 ~mode;
  let ea = Mtp.Endpoint.attach ~algo (Netsim.Host.create a) in
  let eb = Mtp.Endpoint.attach (Netsim.Host.create b) in
  let meter = Stats.Meter.create sim ~interval:(Engine.Time.us 50) () in
  Mtp.Endpoint.bind eb ~port:80 (fun d ->
      Stats.Meter.count_bytes meter d.Mtp.Endpoint.dl_size);
  ignore
    (Workload.Driver.closed_loop ~parallel:2 ~size:250_000
       (fun ~size ~on_complete ->
         Mtp.Endpoint.Messaging.send_message ea ~dst:(Netsim.Node.addr b)
           ~dst_port:80 ~on_complete ~size ()));
  let queue_depth = Stats.Summary.create () in
  let max_queue = ref 0 in
  Engine.Sim.periodic sim ~interval:(Engine.Time.us 10) (fun () ->
      let d = qd.Netsim.Qdisc.pkt_length () in
      Stats.Summary.add queue_depth (float_of_int d);
      if d > !max_queue then max_queue := d;
      Engine.Sim.now sim < duration);
  Engine.Sim.run ~until:duration sim;
  Stats.Meter.stop meter;
  { name;
    goodput_gbps =
      Exp_common.mean_between (Stats.Meter.series meter) ~lo:(duration / 4)
        ~hi:duration;
    mean_queue_pkts = Stats.Summary.mean queue_depth;
    max_queue_pkts = !max_queue;
    drops = qd.Netsim.Qdisc.drops ();
    retransmits = Mtp.Endpoint.retransmits ea }

let run ?(duration = Engine.Time.ms 10) () =
  let rate = Engine.Time.gbps 10 in
  List.map (run_variant ~rate ~duration) (variants rate)

let result () =
  let outs = run () in
  let table =
    Stats.Table.create
      ~columns:
        [ "controller + feedback"; "goodput (Gbps)"; "mean queue (pkts)";
          "max queue"; "drops"; "rtx" ]
  in
  List.iter
    (fun o ->
      Stats.Table.add_rowf table "%s | %.1f | %.1f | %d | %d | %d" o.name
        o.goodput_gbps o.mean_queue_pkts o.max_queue_pkts o.drops
        o.retransmits)
    outs;
  let swift = List.find (fun o -> o.name = "Swift + delay") outs in
  let aimd = List.find (fun o -> o.name = "AIMD + ECN") outs in
  Exp_common.make
    ~title:
      "Ablation: one bottleneck, four congestion-control dialects over \
       MTP's TLV feedback"
    ~table
    ~notes:
      [ Printf.sprintf
          "all controllers drive the 10G link; signature queues differ \
           (Swift keeps %.0f pkts vs AIMD's %.0f)"
          swift.mean_queue_pkts aimd.mean_queue_pkts ]
    ()
