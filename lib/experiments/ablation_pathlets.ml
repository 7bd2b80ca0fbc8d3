type output = {
  single_pathlet_gbps : float;
  per_link_pathlets_gbps : float;
  benefit : float;
}

let run_variant ~duration ~fine =
  let cfg = Fig5_multipath.default in
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  (* Longer links than Fig 5's 1 us: with a 10 us RTT the merged
     window cannot re-grow within a dwell, which is exactly the regime
     where remembering per-pathlet state matters. *)
  let delay = Engine.Time.us 10 in
  let tp =
    Netsim.Topology.two_path topo ~rate_a:cfg.Fig5_multipath.fast_rate
      ~rate_b:cfg.Fig5_multipath.slow_rate ~delay_a:delay ~delay_b:delay
      ~edge_rate:(Engine.Time.gbps 200)
      ~qdisc_a:(Netsim.Qdisc.fifo ~cap_pkts:cfg.Fig5_multipath.buffer_pkts ())
      ~qdisc_b:(Netsim.Qdisc.fifo ~cap_pkts:cfg.Fig5_multipath.buffer_pkts ())
      ()
  in
  Mtp.Mtp_switch.alternate_path sim tp.Netsim.Topology.tp_ingress
    ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)
    ~ports:[| tp.Netsim.Topology.tp_port_a; tp.Netsim.Topology.tp_port_b |]
    ~interval:cfg.Fig5_multipath.flip_interval
    ~fallback:(Netsim.Routing.static tp.Netsim.Topology.tp_routes);
  (* Coarse: both links stamp the same pathlet id, so the sender keeps
     one merged window — the "network as a single pathlet" extreme. *)
  let id_a = 1 and id_b = if fine then 2 else 1 in
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_a ~path_id:id_a
    ~mode:(Mtp.Mtp_switch.Ecn_mark cfg.Fig5_multipath.ecn_threshold);
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_b ~path_id:id_b
    ~mode:(Mtp.Mtp_switch.Ecn_mark cfg.Fig5_multipath.ecn_threshold);
  let ea = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_src) in
  let eb = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst) in
  let meter =
    Stats.Meter.create sim
      ~interval:cfg.Fig5_multipath.sample_interval ()
  in
  Mtp.Endpoint.bind eb ~port:80 (fun d ->
      Stats.Meter.count_bytes meter d.Mtp.Endpoint.dl_size);
  ignore
    (Workload.Driver.closed_loop ~parallel:4 ~size:250_000
       (fun ~size ~on_complete ->
         Mtp.Endpoint.Messaging.send_message ea
           ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst) ~dst_port:80
           ~on_complete ~size ()));
  Engine.Sim.run ~until:duration sim;
  Stats.Meter.stop meter;
  Exp_common.mean_between (Stats.Meter.series meter) ~lo:(duration / 4)
    ~hi:duration

let run ?(duration = Engine.Time.ms 8) () =
  let coarse = run_variant ~duration ~fine:false in
  let fine = run_variant ~duration ~fine:true in
  { single_pathlet_gbps = coarse; per_link_pathlets_gbps = fine;
    benefit = fine /. Float.max 1e-9 coarse }

let result () =
  let o = run () in
  let table =
    Stats.Table.create ~columns:[ "pathlet granularity"; "goodput (Gbps)" ]
  in
  Stats.Table.add_rowf table "one pathlet for the whole network | %.1f"
    o.single_pathlet_gbps;
  Stats.Table.add_rowf table "one pathlet per link | %.1f"
    o.per_link_pathlets_gbps;
  Exp_common.make
    ~title:"Ablation: pathlet granularity on the Fig 5 scenario"
    ~table
    ~notes:
      [ Printf.sprintf
          "per-link pathlets are %.2fx a single merged pathlet (which \
           collapses to DCTCP-like single-window behaviour)"
          o.benefit ]
    ()
