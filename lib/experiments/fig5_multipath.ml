type config = {
  fast_rate : Engine.Time.rate;
  slow_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;
  buffer_pkts : int;
  ecn_threshold : int;
  flip_interval : Engine.Time.t;
  sample_interval : Engine.Time.t;
  duration : Engine.Time.t;
}

let default =
  { fast_rate = Engine.Time.gbps 100; slow_rate = Engine.Time.gbps 10;
    link_delay = Engine.Time.us 1; buffer_pkts = 128; ecn_threshold = 20;
    flip_interval = Engine.Time.us 384; sample_interval = Engine.Time.us 32;
    duration = Engine.Time.ms 8 }

let build cfg ~qdisc_a ~qdisc_b =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let tp =
    Netsim.Topology.two_path topo ~rate_a:cfg.fast_rate
      ~rate_b:cfg.slow_rate ~delay_a:cfg.link_delay ~delay_b:cfg.link_delay
      ~edge_rate:(Engine.Time.gbps 200) ~qdisc_a ~qdisc_b ()
  in
  (* The first-hop switch alternates paths, Fig. 5's optical switch. *)
  Mtp.Mtp_switch.alternate_path sim tp.Netsim.Topology.tp_ingress
    ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)
    ~ports:[| tp.Netsim.Topology.tp_port_a; tp.Netsim.Topology.tp_port_b |]
    ~interval:cfg.flip_interval
    ~fallback:(Netsim.Routing.static tp.Netsim.Topology.tp_routes);
  let meter = Stats.Meter.create sim ~interval:cfg.sample_interval () in
  (sim, tp, meter)

let run_dctcp cfg =
  let qdisc () =
    Netsim.Qdisc.ecn ~cap_pkts:cfg.buffer_pkts
      ~mark_threshold:cfg.ecn_threshold ()
  in
  let sim, tp, meter = build cfg ~qdisc_a:(qdisc ()) ~qdisc_b:(qdisc ()) in
  (* min_rto of 1 ms: with a single RTT estimator, path flips make the
     50 us datacenter floor fire spurious timeouts on the slow path's
     inflated RTT and collapse the flow entirely; a conservative floor
     is the kindest configuration for the DCTCP baseline.  (MTP needs
     no such crutch — its RTT state is per pathlet.) *)
  let client =
    Transport.Dctcp.attach ~snd_buf:400_000 ~min_rto:(Engine.Time.ms 1)
      (Netsim.Host.create tp.Netsim.Topology.tp_src)
  in
  let server =
    Transport.Dctcp.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst)
  in
  Transport.Dctcp.Messaging.listen server ~port:80
    ~on_data:(Stats.Meter.count_bytes meter) ();
  ignore
    (Transport.Tcp.stream client
       ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)
       ~dst_port:80 ());
  Engine.Sim.run ~until:cfg.duration sim;
  Stats.Meter.stop meter;
  Stats.Meter.series meter

let run_mtp cfg =
  let qdisc_a = Netsim.Qdisc.fifo ~cap_pkts:cfg.buffer_pkts () in
  let qdisc_b = Netsim.Qdisc.fifo ~cap_pkts:cfg.buffer_pkts () in
  let sim, tp, meter = build cfg ~qdisc_a ~qdisc_b in
  (* Each path is its own pathlet, stamping DCTCP-style marks. *)
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_a ~path_id:1
    ~mode:(Mtp.Mtp_switch.Ecn_mark cfg.ecn_threshold);
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_b ~path_id:2
    ~mode:(Mtp.Mtp_switch.Ecn_mark cfg.ecn_threshold);
  let ea = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_src) in
  let eb = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst) in
  Mtp.Endpoint.Messaging.listen eb ~port:80
    ~on_data:(Stats.Meter.count_bytes meter) ();
  (* A continuously backlogged message stream (the long-lasting flow):
     several chains so completion gaps never idle the sender. *)
  ignore
    (Workload.Driver.closed_loop ~parallel:4 ~size:250_000
       (fun ~size ~on_complete ->
         ignore
           (Mtp.Endpoint.send ea
              ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)
              ~dst_port:80 ~on_complete ~size ())));
  Engine.Sim.run ~until:cfg.duration sim;
  Stats.Meter.stop meter;
  Stats.Meter.series meter

type output = {
  dctcp : Stats.Timeseries.t;
  mtp : Stats.Timeseries.t;
  dctcp_mean : float;
  mtp_mean : float;
  improvement : float;
}

let run ?(config = default) () =
  let dctcp = run_dctcp config in
  Telemetry.Ctx.mark_run "fig5/dctcp";
  let mtp = run_mtp config in
  Telemetry.Ctx.mark_run "fig5/mtp";
  (* Skip the first quarter (convergence) when reporting means, like
     the paper's steady-state reading. *)
  let lo = config.duration / 4 and hi = config.duration in
  let dctcp_mean = Exp_common.mean_between dctcp ~lo ~hi in
  let mtp_mean = Exp_common.mean_between mtp ~lo ~hi in
  { dctcp; mtp; dctcp_mean; mtp_mean;
    improvement = mtp_mean /. Float.max 1e-9 dctcp_mean }

let result ?config () =
  let o = run ?config () in
  let table =
    Stats.Table.create ~columns:[ "scheme"; "mean goodput (Gbps)" ]
  in
  Stats.Table.add_rowf table "DCTCP (one window) | %.1f" o.dctcp_mean;
  Stats.Table.add_rowf table "MTP (per-pathlet windows) | %.1f" o.mtp_mean;
  Exp_common.make
    ~title:
      "Fig 5: multipath congestion control under 384us path alternation \
       (100G fast / 10G slow)"
    ~series:
      [ { Exp_common.label = "dctcp goodput (Gbps)"; data = o.dctcp };
        { Exp_common.label = "mtp goodput (Gbps)"; data = o.mtp } ]
    ~table
    ~notes:
      [ Printf.sprintf
          "MTP/DCTCP goodput = %.2fx (paper reports ~1.33x)" o.improvement ]
    ()
