type variant_out = {
  completion_us : float;
  p99_fct_us : float;
  timeouts : int;
  nacks : int;
  drops : int;
}

type output = { droptail : variant_out; trimming : variant_out }

let senders = 16
let message_bytes = 8_000
let queue_pkts = 16

let run_variant ~trim =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let qd =
    if trim then Netsim.Qdisc.trimming ~cap_pkts:queue_pkts ()
    else Netsim.Qdisc.fifo ~cap_pkts:queue_pkts ()
  in
  let st =
    Netsim.Topology.star topo ~n:senders ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ~server_qdisc:qd ()
  in
  let server_ep =
    Mtp.Endpoint.attach (Netsim.Host.create st.Netsim.Topology.st_server)
  in
  Mtp.Endpoint.bind server_ep ~port:80 (fun _ -> ());
  let fcts = Stats.Summary.create () in
  let last_done = ref 0 in
  let eps =
    Array.map
      (fun sender ->
        let ep = Mtp.Endpoint.attach (Netsim.Host.create sender) in
        (* Synchronized burst: the incast. *)
        ignore
          (Mtp.Endpoint.send ep
             ~dst:(Netsim.Node.addr st.Netsim.Topology.st_server)
             ~dst_port:80
             ~on_complete:(fun fct ->
               Stats.Summary.add fcts (Engine.Time.to_float_us fct);
               last_done := Engine.Sim.now sim)
             ~size:message_bytes ());
        ep)
      st.Netsim.Topology.st_clients
  in
  Engine.Sim.run ~until:(Engine.Time.ms 200) sim;
  let timeouts =
    Array.fold_left (fun acc ep -> acc + Mtp.Endpoint.timeouts ep) 0 eps
  in
  let nacks =
    Array.fold_left (fun acc ep -> acc + Mtp.Endpoint.nacks_received ep) 0 eps
  in
  { completion_us = Engine.Time.to_float_us !last_done;
    p99_fct_us =
      (if Stats.Summary.count fcts = 0 then nan
       else Stats.Summary.percentile fcts 99.0);
    timeouts; nacks; drops = qd.Netsim.Qdisc.drops () }

let run () =
  { droptail = run_variant ~trim:false; trimming = run_variant ~trim:true }

let result () =
  let o = run () in
  let table =
    Stats.Table.create
      ~columns:
        [ "egress queue"; "incast completion (us)"; "p99 FCT (us)";
          "timeouts"; "NACKs"; "drops" ]
  in
  let row name v =
    Stats.Table.add_rowf table "%s | %.0f | %.0f | %d | %d | %d" name
      v.completion_us v.p99_fct_us v.timeouts v.nacks v.drops
  in
  row "drop-tail" o.droptail;
  row "NDP trimming" o.trimming;
  Exp_common.make
    ~title:"Ablation: NDP trimming vs drop-tail under a 16-way incast"
    ~table
    ~notes:
      [ Printf.sprintf
          "trimming finishes the incast %.1fx sooner (%d NACKs replace %d \
           RTO events)"
          (o.droptail.completion_us /. Float.max 1.0 o.trimming.completion_us)
          o.trimming.nacks o.droptail.timeouts ]
    ()
