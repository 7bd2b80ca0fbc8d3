type row = {
  ack_every : int;
  goodput_gbps : float;
  acks : int;
  acks_per_data_pkt : float;
}

let run_variant ~duration ~ack_every =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.host topo "a" in
  let b = Netsim.Topology.host topo "b" in
  let ab, _ =
    Netsim.Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 5)
      ~ab_qdisc:(Netsim.Qdisc.fifo ~cap_pkts:256 ())
      ()
  in
  Mtp.Mtp_switch.stamp sim ab ~path_id:1 ~mode:(Mtp.Mtp_switch.Ecn_mark 20);
  let ea = Mtp.Endpoint.attach (Netsim.Host.create a) in
  let eb =
    Mtp.Endpoint.attach ~ack_every (Netsim.Host.create b)
  in
  let meter = Stats.Meter.create sim ~interval:(Engine.Time.us 50) () in
  Mtp.Endpoint.bind eb ~port:80 (fun d ->
      Stats.Meter.count_bytes meter d.Mtp.Endpoint.dl_size);
  ignore
    (Workload.Driver.closed_loop ~parallel:2 ~size:500_000
       (fun ~size ~on_complete ->
         Mtp.Endpoint.Messaging.send_message ea ~dst:(Netsim.Node.addr b)
           ~dst_port:80 ~on_complete ~size ()));
  Engine.Sim.run ~until:duration sim;
  Stats.Meter.stop meter;
  let data_pkts =
    Mtp.Endpoint.delivered_bytes eb / 1440
  in
  { ack_every;
    goodput_gbps =
      Exp_common.mean_between (Stats.Meter.series meter) ~lo:(duration / 4)
        ~hi:duration;
    acks = Mtp.Endpoint.acks_sent eb;
    acks_per_data_pkt =
      float_of_int (Mtp.Endpoint.acks_sent eb)
      /. Float.max 1.0 (float_of_int data_pkts) }

let run () =
  List.map
    (fun ack_every -> run_variant ~duration:(Engine.Time.ms 10) ~ack_every)
    [ 1; 4; 16 ]

let result () =
  let rows = run () in
  let table =
    Stats.Table.create
      ~columns:
        [ "ack aggregation"; "goodput (Gbps)"; "ack packets";
          "acks per data pkt" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_rowf table "every %d packets | %.1f | %d | %.2f"
        r.ack_every r.goodput_gbps r.acks r.acks_per_data_pkt)
    rows;
  let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
  Exp_common.make
    ~title:"Ablation: feedback aggregation (SACK coalescing)"
    ~table
    ~notes:
      [ Printf.sprintf
          "16x aggregation cuts ack packets %.1fx at %.0f%% of the \
           per-packet goodput"
          (float_of_int first.acks /. Float.max 1.0 (float_of_int last.acks))
          (100.0 *. last.goodput_gbps /. Float.max 1e-9 first.goodput_gbps) ]
    ()
