type config = {
  path_rate : Engine.Time.rate;
  base_delay : Engine.Time.t;
  extra_delay_b : Engine.Time.t;
  max_message : int;
  load : float;
  duration : Engine.Time.t;
  seed : int;
}

let default =
  { path_rate = Engine.Time.gbps 100; base_delay = Engine.Time.us 1;
    extra_delay_b = Engine.Time.us 1; max_message = 16_000_000; load = 0.5;
    duration = Engine.Time.ms 200; seed = 42 }

type scheme_out = {
  fct_p50_us : float;
  fct_p95_us : float;
  fct_p99_us : float;
  fct_mean_us : float;
  completed : int;
  retransmits : int;
}

let build cfg =
  let sim = Engine.Sim.create ~seed:cfg.seed () in
  let topo = Netsim.Topology.create sim in
  let tp =
    Netsim.Topology.two_path topo ~rate_a:cfg.path_rate
      ~rate_b:cfg.path_rate ~delay_a:cfg.base_delay
      ~delay_b:(cfg.base_delay + cfg.extra_delay_b)
      ~edge_rate:(2 * cfg.path_rate)
      ~qdisc_a:(Netsim.Qdisc.ecn ~cap_pkts:256 ~mark_threshold:40 ())
      ~qdisc_b:(Netsim.Qdisc.ecn ~cap_pkts:256 ~mark_threshold:40 ())
      ()
  in
  (sim, tp)

let sizes cfg = Workload.Sizes.paper_mix_capped ~max:cfg.max_message

let interarrival cfg ~mean_size =
  Workload.Driver.load_interarrival ~rate:(2 * cfg.path_rate) ~load:cfg.load
    ~mean_size

let summarize (driver : Workload.Driver.t) ~retransmits =
  let s = Workload.Driver.fcts driver in
  if Stats.Summary.count s = 0 then
    { fct_p50_us = 0.0; fct_p95_us = 0.0; fct_p99_us = 0.0;
      fct_mean_us = 0.0; completed = 0; retransmits }
  else
    { fct_p50_us = Stats.Summary.percentile s 50.0;
      fct_p95_us = Stats.Summary.percentile s 95.0;
      fct_p99_us = Stats.Summary.percentile s 99.0;
      fct_mean_us = Stats.Summary.mean s;
      completed = Stats.Summary.count s; retransmits }

(* TCP variant: one message per flow so ECMP/spraying have flows to
   place; `route` configures the ingress switch. *)
let run_tcp cfg ~route =
  let sim, tp = build cfg in
  Netsim.Switch.set_forward tp.Netsim.Topology.tp_ingress
    (route tp.Netsim.Topology.tp_routes);
  let cc = Transport.Tcp.Dctcp in
  let client =
    Transport.Tcp.attach ~cc ~snd_buf:500_000
      (Netsim.Host.create tp.Netsim.Topology.tp_src)
  in
  let server =
    Transport.Tcp.attach ~cc (Netsim.Host.create tp.Netsim.Topology.tp_dst)
  in
  Transport.Tcp.Messaging.listen server ~port:80 ();
  let rng = Engine.Rng.create (cfg.seed + 1) in
  let size_dist = sizes cfg in
  let mean_size = Workload.Dist.mean_estimate size_dist (Engine.Rng.create 7) 20_000 in
  let send ~size ~on_complete =
    Transport.Tcp.Messaging.send_message client
      ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst) ~dst_port:80
      ~on_complete ~size ()
  in
  let driver =
    Workload.Driver.poisson sim ~rng ~size:size_dist
      ~mean_interarrival:(interarrival cfg ~mean_size)
      ~until:cfg.duration send
  in
  ignore
    (Engine.Sim.schedule sim
       ~at:(cfg.duration * 3)
       (fun () -> Workload.Driver.stop driver));
  (* Let in-flight transfers finish well past the arrival window. *)
  Engine.Sim.run ~until:(cfg.duration * 4) sim;
  let stats = Transport.Tcp.Messaging.stats client in
  summarize driver ~retransmits:stats.Netsim.Transport_intf.retransmits

let run_mtp cfg =
  let sim, tp = build cfg in
  ignore
    (Mtp.Mtp_switch.msg_lb tp.Netsim.Topology.tp_ingress
       ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)
       ~ports:[| tp.Netsim.Topology.tp_port_a; tp.Netsim.Topology.tp_port_b |]
       ~fallback:(Netsim.Routing.static tp.Netsim.Topology.tp_routes));
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_a ~path_id:1
    ~mode:(Mtp.Mtp_switch.Ecn_mark 40);
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_b ~path_id:2
    ~mode:(Mtp.Mtp_switch.Ecn_mark 40);
  let ea = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_src) in
  let eb = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst) in
  Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
  let rng = Engine.Rng.create (cfg.seed + 1) in
  let size_dist = sizes cfg in
  let mean_size = Workload.Dist.mean_estimate size_dist (Engine.Rng.create 7) 20_000 in
  (* Size-bucketed priority via the header's Msg Pri field — an
     SRPT-flavoured sender schedule (smallest messages first, round
     robin within a bucket).  This is the natural MTP configuration:
     tail-optimal for the vast majority of messages, at the cost of the
     very largest ones under heavy load (see the load sweep). *)
  let pri_of size =
    let rec bucket s acc =
      if s <= 16_000 || acc >= 7 then acc else bucket (s / 4) (acc + 1)
    in
    bucket size 0
  in
  let send ~size ~on_complete =
    ignore
      (Mtp.Endpoint.send ea
         ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst) ~dst_port:80
         ~pri:(pri_of size) ~on_complete ~size ())
  in
  let driver =
    Workload.Driver.poisson sim ~rng ~size:size_dist
      ~mean_interarrival:(interarrival cfg ~mean_size)
      ~until:cfg.duration send
  in
  ignore
    (Engine.Sim.schedule sim
       ~at:(cfg.duration * 3)
       (fun () -> Workload.Driver.stop driver));
  Engine.Sim.run ~until:(cfg.duration * 4) sim;
  summarize driver ~retransmits:(Mtp.Endpoint.retransmits ea)

type output = { ecmp : scheme_out; spray : scheme_out; mtp : scheme_out }

let run ?(config = default) () =
  let ecmp = run_tcp config ~route:Netsim.Routing.ecmp in
  let spray = run_tcp config ~route:Netsim.Routing.spray in
  let mtp = run_mtp config in
  { ecmp; spray; mtp }

let result ?config () =
  let o = run ?config () in
  let table =
    Stats.Table.create
      ~columns:
        [ "scheme"; "p50 FCT (us)"; "p95 FCT (us)"; "p99 FCT (us)";
          "mean (us)"; "completed"; "retransmits" ]
  in
  let row name s =
    Stats.Table.add_rowf table "%s | %.0f | %.0f | %.0f | %.0f | %d | %d"
      name s.fct_p50_us s.fct_p95_us s.fct_p99_us s.fct_mean_us s.completed
      s.retransmits
  in
  row "ECMP (per-flow hash)" o.ecmp;
  row "packet spraying" o.spray;
  row "MTP msg-aware LB" o.mtp;
  Exp_common.make
    ~title:
      "Fig 6: load balancing a skewed message mix over two 100G paths \
       (99th-pct FCT)"
    ~table
    ~notes:
      [ Printf.sprintf "p99 FCT: ECMP %.0fus, spray %.0fus, MTP %.0fus"
          o.ecmp.fct_p99_us o.spray.fct_p99_us o.mtp.fct_p99_us;
        Printf.sprintf
          "spraying's reordering cost: %d spurious TCP retransmits vs %d \
           for MTP"
          o.spray.retransmits o.mtp.retransmits ]
    ()
