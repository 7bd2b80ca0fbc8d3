type variant_out = {
  mean_fct_us : float;
  p99_fct_us : float;
  retransmits : int;
}

type output = {
  without_exclusion : variant_out;
  with_exclusion : variant_out;
}

let run_variant ~duration ~seed ~exclusion =
  let sim = Engine.Sim.create ~seed () in
  let topo = Netsim.Topology.create sim in
  let tp =
    Netsim.Topology.two_path topo ~rate_a:(Engine.Time.gbps 10)
      ~rate_b:(Engine.Time.gbps 10) ~delay_a:(Engine.Time.us 2)
      ~delay_b:(Engine.Time.us 2) ~edge_rate:(Engine.Time.gbps 40)
      ~qdisc_a:(Netsim.Qdisc.fifo ~cap_pkts:128 ())
      ~qdisc_b:(Netsim.Qdisc.fifo ~cap_pkts:128 ())
      ()
  in
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_a ~path_id:1
    ~mode:(Mtp.Mtp_switch.Ecn_mark 16);
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_b ~path_id:2
    ~mode:(Mtp.Mtp_switch.Ecn_mark 16);
  (* ECMP across both ports, honouring any path-exclude lists. *)
  Netsim.Switch.set_forward tp.Netsim.Topology.tp_ingress
    (Mtp.Mtp_switch.exclusion_aware
       ~port_paths:
         [ (tp.Netsim.Topology.tp_port_a, 1); (tp.Netsim.Topology.tp_port_b, 2) ]
       tp.Netsim.Topology.tp_routes);
  (* The interferer: 8.5 of path A's 10 Gbps, injected directly at the
     link (a legacy/hostile traffic source MTP cannot control). *)
  let interferer_gap =
    Engine.Time.tx_time ~bytes:1500 ~rate:(Engine.Time.mbps 8_500)
  in
  let interferer_pool = Netsim.Node.pool tp.Netsim.Topology.tp_src in
  Engine.Sim.periodic sim ~interval:interferer_gap (fun () ->
      Netsim.Link.send tp.Netsim.Topology.tp_link_a
        (Netsim.Packet.take interferer_pool ~entity:0 ~prio:0 ~flow_hash:0
           ~payload:Netsim.Packet.Raw
           ~src:(Netsim.Node.addr tp.Netsim.Topology.tp_src)
           ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)
           ~size:1500);
      Engine.Sim.now sim < duration);
  let ea =
    Mtp.Endpoint.attach ~exclusion
      (Netsim.Host.create tp.Netsim.Topology.tp_src)
  in
  let eb = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst) in
  Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
  let fcts = Stats.Summary.create () in
  let rng = Engine.Rng.create (seed + 1) in
  let driver =
    Workload.Driver.poisson sim ~rng
      ~size:(Workload.Sizes.fixed 100_000)
      ~mean_interarrival:(Engine.Time.us 200)
      ~until:duration
      (fun ~size ~on_complete ->
        ignore
          (Mtp.Endpoint.send ea
             ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst) ~dst_port:80
             ~on_complete:(fun fct ->
               Stats.Summary.add fcts (Engine.Time.to_float_us fct);
               on_complete fct)
             ~size ()))
  in
  ignore driver;
  Engine.Sim.run ~until:(2 * duration) sim;
  { mean_fct_us =
      (if Stats.Summary.count fcts = 0 then nan else Stats.Summary.mean fcts);
    p99_fct_us =
      (if Stats.Summary.count fcts = 0 then nan
       else Stats.Summary.percentile fcts 99.0);
    retransmits = Mtp.Endpoint.retransmits ea }

let run ?(duration = Engine.Time.ms 20) () =
  { without_exclusion = run_variant ~duration ~seed:42 ~exclusion:false;
    with_exclusion = run_variant ~duration ~seed:42 ~exclusion:true }

let result () =
  let o = run () in
  let table =
    Stats.Table.create
      ~columns:
        [ "configuration"; "mean FCT (us)"; "p99 FCT (us)"; "retransmits" ]
  in
  let row name v =
    Stats.Table.add_rowf table "%s | %.0f | %.0f | %d" name v.mean_fct_us
      v.p99_fct_us v.retransmits
  in
  row "exclusion off" o.without_exclusion;
  row "exclusion on" o.with_exclusion;
  Exp_common.make
    ~title:
      "Ablation: path exclusion steering around an interferer-flooded path"
    ~table
    ~notes:
      [ Printf.sprintf
          "exclusion cuts mean FCT %.1fx by telling the network to avoid \
           the hot pathlet"
          (o.without_exclusion.mean_fct_us
          /. Float.max 1.0 o.with_exclusion.mean_fct_us) ]
    ()
