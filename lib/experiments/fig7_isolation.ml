type config = {
  link_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;
  tenant2_sources : int;
  buffer_pkts : int;
  ecn_threshold : int;
  duration : Engine.Time.t;
  sample_interval : Engine.Time.t;
}

let default =
  { link_rate = Engine.Time.gbps 100; link_delay = Engine.Time.us 10;
    tenant2_sources = 8; buffer_pkts = 256; ecn_threshold = 40;
    duration = Engine.Time.ms 20; sample_interval = Engine.Time.us 100 }

type system_out = {
  tenant1_gbps : float;
  tenant2_gbps : float;
  tenant1_series : Stats.Timeseries.t;
  tenant2_series : Stats.Timeseries.t;
}

(* Senders (1 + tenant2_sources) on a left switch, two receivers on a
   right switch, one bottleneck between them whose qdisc is the system
   under test. *)
let build cfg ~qdisc =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let left = Netsim.Topology.switch topo "left" in
  let right = Netsim.Topology.switch topo "right" in
  let edge = 2 * cfg.link_rate in
  let edge_delay = Engine.Time.us 1 in
  let t1_sender = Netsim.Topology.host topo "t1s" in
  let t2_senders =
    Array.init cfg.tenant2_sources (fun i ->
        Netsim.Topology.host topo (Printf.sprintf "t2s%d" i))
  in
  let t1_rcv = Netsim.Topology.host topo "t1r" in
  let t2_rcv = Netsim.Topology.host topo "t2r" in
  let left_routes = Netsim.Routing.create () in
  let right_routes = Netsim.Routing.create () in
  let wire_sender host =
    let port =
      Netsim.Topology.wire_host_to_switch topo host left ~rate:edge
        ~delay:edge_delay ()
    in
    Netsim.Routing.add left_routes (Netsim.Node.addr host) port
  in
  wire_sender t1_sender;
  Array.iter wire_sender t2_senders;
  let wire_receiver host =
    let port =
      Netsim.Topology.wire_host_to_switch topo host right ~rate:edge
        ~delay:edge_delay ()
    in
    Netsim.Routing.add right_routes (Netsim.Node.addr host) port
  in
  wire_receiver t1_rcv;
  wire_receiver t2_rcv;
  let lr_port, rl_port, bottleneck, _ =
    Netsim.Topology.wire_switch_pair topo left right ~rate:cfg.link_rate
      ~delay:cfg.link_delay ~ab_qdisc:qdisc ()
  in
  List.iter
    (fun r -> Netsim.Routing.add left_routes (Netsim.Node.addr r) lr_port)
    [ t1_rcv; t2_rcv ];
  Array.iter
    (fun s -> Netsim.Routing.add right_routes (Netsim.Node.addr s) rl_port)
    t2_senders;
  Netsim.Routing.add right_routes (Netsim.Node.addr t1_sender) rl_port;
  Netsim.Switch.set_forward left (Netsim.Routing.static left_routes);
  Netsim.Switch.set_forward right (Netsim.Routing.static right_routes);
  (sim, t1_sender, t2_senders, t1_rcv, t2_rcv, bottleneck)

let steady cfg series =
  Exp_common.mean_between series ~lo:(cfg.duration / 4) ~hi:cfg.duration

let meters cfg sim =
  let m1 = Stats.Meter.create sim ~interval:cfg.sample_interval () in
  let m2 = Stats.Meter.create sim ~interval:cfg.sample_interval () in
  (m1, m2)

let finish cfg m1 m2 =
  Stats.Meter.stop m1;
  Stats.Meter.stop m2;
  { tenant1_gbps = steady cfg (Stats.Meter.series m1);
    tenant2_gbps = steady cfg (Stats.Meter.series m2);
    tenant1_series = Stats.Meter.series m1;
    tenant2_series = Stats.Meter.series m2 }

let flows_per_source = 4

let run_dctcp cfg ~qdisc =
  let sim, t1s, t2s, t1r, t2r, _ = build cfg ~qdisc in
  let m1, m2 = meters cfg sim in
  (* One stack per receiver host, one sink port per source. *)
  let srv1 = Transport.Dctcp.attach (Netsim.Host.create t1r) in
  let srv2 = Transport.Dctcp.attach (Netsim.Host.create t2r) in
  let start ~entity ~meter ~server sender receiver =
    let client =
      Transport.Dctcp.attach ~snd_buf:500_000 ~entity
        (Netsim.Host.create sender)
    in
    let port = 80 + Netsim.Node.addr sender in
    Transport.Dctcp.Messaging.listen server ~port
      ~on_data:(Stats.Meter.count_bytes meter) ();
    for _ = 1 to flows_per_source do
      ignore
        (Transport.Tcp.stream client ~dst:(Netsim.Node.addr receiver)
           ~dst_port:port ())
    done
  in
  start ~entity:1 ~meter:m1 ~server:srv1 t1s t1r;
  Array.iter (fun s -> start ~entity:2 ~meter:m2 ~server:srv2 s t2r) t2s;
  Engine.Sim.run ~until:cfg.duration sim;
  finish cfg m1 m2

let run_mtp cfg =
  let qdisc = Netsim.Qdisc.fifo ~cap_pkts:cfg.buffer_pkts () in
  let sim, t1s, t2s, t1r, t2r, bottleneck = build cfg ~qdisc in
  (* One shared queue; the fair-marking policy plus pathlet stamping
     turn provenance into per-tenant congestion feedback. *)
  let policy = Mtp.Policy.equal_shares ~entities:[ 1; 2 ] in
  Mtp.Policy.install_fair_share policy bottleneck ~cap_pkts:cfg.buffer_pkts
    ~mark_threshold:cfg.ecn_threshold;
  (* The fair marker set CE per entity; the stamper reports the bit as
     pathlet feedback. *)
  Mtp.Mtp_switch.stamp sim bottleneck ~path_id:1 ~mode:Mtp.Mtp_switch.Ce_echo;
  let m1, m2 = meters cfg sim in
  let e1r = Mtp.Endpoint.attach (Netsim.Host.create t1r) in
  let e2r = Mtp.Endpoint.attach (Netsim.Host.create t2r) in
  let start ~entity ~meter ~server_ep sender receiver =
    let ea = Mtp.Endpoint.attach ~entity (Netsim.Host.create sender) in
    let port = 80 + Netsim.Node.addr sender in
    Mtp.Endpoint.Messaging.listen server_ep ~port
      ~on_data:(Stats.Meter.count_bytes meter) ();
    ignore
      (Workload.Driver.closed_loop ~parallel:flows_per_source ~size:250_000
         (fun ~size ~on_complete ->
           ignore
             (Mtp.Endpoint.send ea ~dst:(Netsim.Node.addr receiver)
                ~dst_port:port ~tc:entity ~on_complete ~size ())))
  in
  start ~entity:1 ~meter:m1 ~server_ep:e1r t1s t1r;
  Array.iter (fun s -> start ~entity:2 ~meter:m2 ~server_ep:e2r s t2r) t2s;
  Engine.Sim.run ~until:cfg.duration sim;
  finish cfg m1 m2

type output = {
  shared_queue : system_out;
  per_tenant_queues : system_out;
  mtp_fair_shared : system_out;
}

let run ?(config = default) () =
  let cfg = config in
  let shared_queue =
    run_dctcp cfg
      ~qdisc:
        (Netsim.Qdisc.ecn ~cap_pkts:cfg.buffer_pkts
           ~mark_threshold:cfg.ecn_threshold ())
  in
  let per_tenant_queues =
    run_dctcp cfg
      ~qdisc:
        (Netsim.Qdisc.wrr ~mark_threshold:cfg.ecn_threshold
           ~classify:(fun p -> if p.Netsim.Packet.entity = 1 then 0 else 1)
           ~weights:[| 1; 1 |] ~cap_pkts:cfg.buffer_pkts ())
  in
  let mtp_fair_shared = run_mtp cfg in
  { shared_queue; per_tenant_queues; mtp_fair_shared }

let result ?config () =
  let o = run ?config () in
  let table =
    Stats.Table.create
      ~columns:
        [ "system"; "tenant 1 (Gbps)"; "tenant 2 (Gbps)"; "t2/t1 ratio" ]
  in
  let row name s =
    Stats.Table.add_rowf table "%s | %.1f | %.1f | %.1f" name s.tenant1_gbps
      s.tenant2_gbps
      (s.tenant2_gbps /. Float.max 1e-9 s.tenant1_gbps)
  in
  row "DCTCP shared queue" o.shared_queue;
  row "DCTCP per-tenant queues" o.per_tenant_queues;
  row "MTP fair-mark shared queue" o.mtp_fair_shared;
  Exp_common.make
    ~title:
      "Fig 7: per-entity isolation on a shared 100G link (tenant 2 has 8x \
       sources)"
    ~series:
      [ { Exp_common.label = "shared t1"; data = o.shared_queue.tenant1_series };
        { Exp_common.label = "shared t2"; data = o.shared_queue.tenant2_series };
        { Exp_common.label = "wrr t1";
          data = o.per_tenant_queues.tenant1_series };
        { Exp_common.label = "wrr t2";
          data = o.per_tenant_queues.tenant2_series };
        { Exp_common.label = "mtp t1";
          data = o.mtp_fair_shared.tenant1_series };
        { Exp_common.label = "mtp t2";
          data = o.mtp_fair_shared.tenant2_series } ]
    ~table
    ~notes:
      [ Printf.sprintf
          "shared queue splits ~%.0f:1 toward tenant 2; per-tenant queues \
           %.1f:1; MTP fair marking %.1f:1 without separate queues"
          (o.shared_queue.tenant2_gbps
          /. Float.max 1e-9 o.shared_queue.tenant1_gbps)
          (o.per_tenant_queues.tenant2_gbps
          /. Float.max 1e-9 o.per_tenant_queues.tenant1_gbps)
          (o.mtp_fair_shared.tenant2_gbps
          /. Float.max 1e-9 o.mtp_fair_shared.tenant1_gbps) ]
    ()
