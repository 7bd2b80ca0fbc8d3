(* L7 load balancing of RPCs across unequal replicas.

   Run:  dune exec examples/rpc_loadbalancer.exe

   Clients fire RPCs at a front-end message load balancer, which
   forwards each message to one of three backend replicas — one of
   them twice as slow.  Because every request is an independent MTP
   message, consecutive requests from the same client can go to
   different replicas (impossible through a TCP pass-through device).
   Three policies are compared on mean/p99 latency. *)

let rpcs = 600

let run policy_name policy =
  let sim = Engine.Sim.create ~seed:13 () in
  let topo = Netsim.Topology.create sim in
  (* clients 0-3, LB host 4, replicas 5-7, all on one switch. *)
  let st =
    Netsim.Topology.star topo ~n:8 ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ()
  in
  let clients = Array.sub st.Netsim.Topology.st_clients 0 4 in
  let lb_host = st.Netsim.Topology.st_clients.(4) in
  let replicas = Array.sub st.Netsim.Topology.st_clients 5 3 in
  let replica_ports =
    Array.mapi
      (fun i replica ->
        let ep = Mtp.Endpoint.attach (Netsim.Host.create replica) in
        (* Replica 2 is the slow one. *)
        let service =
          if i = 2 then Engine.Time.us 40 else Engine.Time.us 20
        in
        ignore
          (Innetwork.Kvs.server ep ~port:4000 ~service_time:service
             ~value_size:(fun _ -> 600)
             ());
        (Netsim.Node.addr replica, 4000))
      replicas
  in
  let lb_ep = Mtp.Endpoint.attach (Netsim.Host.create lb_host) in
  let lb = Innetwork.L7lb.create lb_ep ~port:4000 ~replicas:replica_ports ~policy () in
  let latencies = Stats.Summary.create () in
  Array.iter
    (fun client ->
      let ep = Mtp.Endpoint.attach (Netsim.Host.create client) in
      let kvs = Innetwork.Kvs.client ep in
      let rec ask remaining =
        if remaining > 0 then
          Innetwork.Kvs.get kvs ~server:(Netsim.Node.addr lb_host)
            ~server_port:4000
            ~key:(remaining mod 97)
            ~on_reply:(fun ~size:_ ~latency ->
              Stats.Summary.add latencies (Engine.Time.to_float_us latency);
              ask (remaining - 1))
            ()
      in
      ask (rpcs / 4))
    clients;
  Engine.Sim.run ~until:(Engine.Time.ms 200) sim;
  let dist = Innetwork.L7lb.per_replica lb in
  Printf.printf
    "%-18s mean %6.1f us  p99 %7.1f us  per-replica [%d %d %d]\n"
    policy_name
    (Stats.Summary.mean latencies)
    (Stats.Summary.percentile latencies 99.0)
    dist.(0) dist.(1) dist.(2)

let () =
  run "round robin" Innetwork.L7lb.Round_robin;
  run "least outstanding" Innetwork.L7lb.Least_outstanding;
  run "EWMA latency" Innetwork.L7lb.Ewma_latency;
  print_endline
    "request-level balancing: each message is independent, so the slow \
     replica is visibly de-weighted by the adaptive policies"
