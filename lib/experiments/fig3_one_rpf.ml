type config = {
  hosts : int;
  message_bytes : int;
  link_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;
  chains_per_host : int;
  duration : Engine.Time.t;
  sample_interval : Engine.Time.t;
}

let default =
  { hosts = 4; message_bytes = 16_384; link_rate = Engine.Time.gbps 100;
    link_delay = Engine.Time.us 1; chains_per_host = 1;
    duration = Engine.Time.ms 3; sample_interval = Engine.Time.us 32 }

let build cfg =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let db =
    Netsim.Topology.dumbbell topo ~n:cfg.hosts ~edge_rate:cfg.link_rate
      ~bottleneck_rate:cfg.link_rate ~delay:cfg.link_delay
      ~bottleneck_qdisc:
        (Netsim.Qdisc.ecn ~cap_pkts:128 ~mark_threshold:20 ())
      ()
  in
  let meter = Stats.Meter.create sim ~interval:cfg.sample_interval () in
  (sim, db, meter)

let summarize series =
  let s = Stats.Timeseries.summary series in
  (Stats.Summary.mean s, Stats.Summary.cv s)

let run_tcp cfg ~one_rpf =
  let sim, db, meter = build cfg in
  let cc = Transport.Tcp.Dctcp in
  Array.iteri
    (fun i snd ->
      let rcv = db.Netsim.Topology.db_receivers.(i) in
      let dst = Netsim.Node.addr rcv in
      let client =
        Transport.Tcp.attach ~cc ~snd_buf:500_000 (Netsim.Host.create snd)
      in
      let server = Transport.Tcp.attach ~cc (Netsim.Host.create rcv) in
      Transport.Tcp.Messaging.listen server ~port:80
        ~on_data:(Stats.Meter.count_bytes meter) ();
      if one_rpf then
        ignore
          (Workload.Driver.closed_loop ~parallel:cfg.chains_per_host
             ~size:cfg.message_bytes (fun ~size ~on_complete ->
               Transport.Tcp.Messaging.send_message client ~dst ~dst_port:80
                 ~on_complete ~size ()))
      else
        for _ = 1 to cfg.chains_per_host do
          ignore
            (Transport.Tcp.stream client ~dst ~dst_port:80
               ~chunk:cfg.message_bytes ())
        done)
    db.Netsim.Topology.db_senders;
  Engine.Sim.run ~until:cfg.duration sim;
  Stats.Meter.stop meter;
  Stats.Meter.series meter

let run_mtp cfg =
  let sim, db, meter = build cfg in
  let receivers = ref [] in
  Array.iteri
    (fun i snd ->
      let rcv = db.Netsim.Topology.db_receivers.(i) in
      let ea = Mtp.Endpoint.attach (Netsim.Host.create snd) in
      let eb = Mtp.Endpoint.attach (Netsim.Host.create rcv) in
      receivers := eb :: !receivers;
      Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
      ignore
        (Workload.Driver.closed_loop ~parallel:cfg.chains_per_host
           ~size:cfg.message_bytes (fun ~size ~on_complete ->
             Mtp.Endpoint.Messaging.send_message ea
               ~dst:(Netsim.Node.addr rcv) ~dst_port:80 ~on_complete ~size
               ())))
    db.Netsim.Topology.db_senders;
  (* Meter at packet granularity (delivered-byte deltas), like the TCP
     sinks, so binning reflects the wire and not completion lumps. *)
  let last = ref 0 in
  ignore @@ Engine.Sim.periodic sim ~interval:(Engine.Time.us 8) (fun () ->
      let total =
        List.fold_left
          (fun acc eb -> acc + Mtp.Endpoint.delivered_bytes eb)
          0 !receivers
      in
      Stats.Meter.count_bytes meter (total - !last);
      last := total;
      Engine.Sim.now sim < cfg.duration);
  Engine.Sim.run ~until:cfg.duration sim;
  Stats.Meter.stop meter;
  Stats.Meter.series meter

type output = {
  one_rpf : Stats.Timeseries.t;
  persistent : Stats.Timeseries.t;
  mtp : Stats.Timeseries.t;
  one_rpf_mean : float;
  one_rpf_cv : float;
  persistent_mean : float;
  persistent_cv : float;
  mtp_mean : float;
  mtp_cv : float;
}

let run ?(config = default) () =
  let one_rpf = run_tcp config ~one_rpf:true in
  let persistent = run_tcp config ~one_rpf:false in
  let mtp = run_mtp config in
  let one_rpf_mean, one_rpf_cv = summarize one_rpf in
  let persistent_mean, persistent_cv = summarize persistent in
  let mtp_mean, mtp_cv = summarize mtp in
  { one_rpf; persistent; mtp; one_rpf_mean; one_rpf_cv; persistent_mean;
    persistent_cv; mtp_mean; mtp_cv }

let result ?config () =
  let o = run ?config () in
  let table =
    Stats.Table.create
      ~columns:[ "scheme"; "mean goodput (Gbps)"; "CoV" ]
  in
  Stats.Table.add_rowf table "DCTCP, one msg per flow | %.1f | %.2f"
    o.one_rpf_mean o.one_rpf_cv;
  Stats.Table.add_rowf table "DCTCP, persistent flows | %.1f | %.2f"
    o.persistent_mean o.persistent_cv;
  Stats.Table.add_rowf table "MTP messages | %.1f | %.2f" o.mtp_mean o.mtp_cv;
  Exp_common.make
    ~title:
      "Fig 3: one request per flow breaks congestion control (4 hosts, \
       16 KB messages, 100G dumbbell)"
    ~series:
      [ { Exp_common.label = "one-rpf goodput (Gbps)"; data = o.one_rpf };
        { Exp_common.label = "persistent goodput (Gbps)";
          data = o.persistent };
        { Exp_common.label = "mtp goodput (Gbps)"; data = o.mtp } ]
    ~table
    ~notes:
      [ Printf.sprintf
          "one-message-per-flow reaches %.0f%% of persistent TCP's goodput \
           with %.1fx its variability"
          (100.0 *. o.one_rpf_mean /. Float.max 1e-9 o.persistent_mean)
          (o.one_rpf_cv /. Float.max 1e-9 o.persistent_cv);
        Printf.sprintf "MTP sustains %.1f Gbps without connections"
          o.mtp_mean ]
    ()
