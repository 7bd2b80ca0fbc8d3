(* Per-entity isolation without separate queues.

   Run:  dune exec examples/tenant_isolation.exe

   Two tenants share one 40 Gbps link.  Tenant "batch" runs six message
   streams; tenant "latency" runs one.  With a plain shared queue the
   batch tenant grabs ~6/7 of the link.  Installing a fair-marking
   policy on the same single queue rebalances to the configured 50/50
   split — the switch only needs the per-packet provenance MTP
   carries. *)

let run ~fair =
  let sim = Engine.Sim.create ~seed:5 () in
  let topo = Netsim.Topology.create sim in
  let st =
    Netsim.Topology.star topo ~n:7 ~rate:(Engine.Time.gbps 40)
      ~delay:(Engine.Time.us 5)
      ~server_qdisc:(Netsim.Qdisc.fifo ~cap_pkts:256 ())
      ()
  in
  let bottleneck =
    Netsim.Switch.port st.Netsim.Topology.st_switch
      st.Netsim.Topology.st_server_port
  in
  if fair then begin
    let policy = Mtp.Policy.equal_shares ~entities:[ 1; 2 ] in
    Mtp.Policy.install_fair_share policy bottleneck ~cap_pkts:256
      ~mark_threshold:32
  end
  else
    Netsim.Link.set_qdisc bottleneck
      (Netsim.Qdisc.ecn ~cap_pkts:256 ~mark_threshold:32 ());
  Engine.Sim.now sim |> ignore;
  Mtp.Mtp_switch.stamp sim bottleneck ~path_id:1 ~mode:Mtp.Mtp_switch.Ce_echo;
  let server_ep =
    Mtp.Endpoint.attach (Netsim.Host.create st.Netsim.Topology.st_server)
  in
  let tenant_bytes = Array.make 3 0 in
  let start ~entity client =
    let ep = Mtp.Endpoint.attach ~entity (Netsim.Host.create client) in
    let port = 8000 + Netsim.Node.addr client in
    Mtp.Endpoint.bind server_ep ~port (fun d ->
        tenant_bytes.(entity) <- tenant_bytes.(entity) + d.Mtp.Endpoint.dl_size);
    ignore
      (Workload.Driver.closed_loop ~parallel:2 ~size:200_000
         (fun ~size ~on_complete ->
           Mtp.Endpoint.Messaging.send_message ep
             ~dst:(Netsim.Node.addr st.Netsim.Topology.st_server)
             ~dst_port:port ~tc:entity ~on_complete ~size ()))
  in
  (* Client 0 is the latency tenant (entity 1); clients 1-6 belong to
     the batch tenant (entity 2). *)
  Array.iteri
    (fun i c -> start ~entity:(if i = 0 then 1 else 2) c)
    st.Netsim.Topology.st_clients;
  let duration = Engine.Time.ms 20 in
  Engine.Sim.run ~until:duration sim;
  let gbps e = float_of_int (tenant_bytes.(e) * 8) /. float_of_int duration in
  (gbps 1, gbps 2)

let () =
  let t1, t2 = run ~fair:false in
  Printf.printf "shared FIFO + ECN:  latency tenant %5.1f Gbps | batch tenant %5.1f Gbps (%.1fx)\n"
    t1 t2 (t2 /. t1);
  let f1, f2 = run ~fair:true in
  Printf.printf "fair-mark policy:   latency tenant %5.1f Gbps | batch tenant %5.1f Gbps (%.1fx)\n"
    f1 f2 (f2 /. f1);
  print_endline
    "same single queue; the policy only needed the entity tag every MTP \
     packet carries"
