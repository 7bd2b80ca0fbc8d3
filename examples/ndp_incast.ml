(* NDP-style trimming under incast (paper §4, "NDP").

   Run:  dune exec examples/ndp_incast.exe

   Thirty-two workers answer a scatter-gather query at once, slamming
   the aggregator's shallow egress queue.  With a drop-tail queue the
   lost packets surface only at retransmission timeouts; with an
   NDP-style trimming queue every overload becomes a header + an
   immediate NACK, and recovery happens in round-trip time. *)

let workers = 32
let reply_bytes = 12_000
let queue_pkts = 24

let run ~trim =
  let sim = Engine.Sim.create ~seed:21 () in
  let topo = Netsim.Topology.create sim in
  let qd =
    if trim then
      Netsim.Qdisc.trimming ~cap_pkts:queue_pkts ()
    else Netsim.Qdisc.fifo ~cap_pkts:queue_pkts ()
  in
  let st =
    Netsim.Topology.star topo ~n:workers ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 3) ~server_qdisc:qd ()
  in
  let aggregator =
    Mtp.Endpoint.attach (Netsim.Host.create st.Netsim.Topology.st_server)
  in
  Mtp.Endpoint.bind aggregator ~port:80 (fun _ -> ());
  let fcts = Stats.Summary.create () in
  let eps =
    Array.map
      (fun w ->
        let ep = Mtp.Endpoint.attach (Netsim.Host.create w) in
        ignore
          (Mtp.Endpoint.send ep
             ~dst:(Netsim.Node.addr st.Netsim.Topology.st_server)
             ~dst_port:80
             ~on_complete:(fun fct ->
               Stats.Summary.add fcts (Engine.Time.to_float_us fct))
             ~size:reply_bytes ());
        ep)
      st.Netsim.Topology.st_clients
  in
  Engine.Sim.run ~until:(Engine.Time.ms 200) sim;
  let sum f = Array.fold_left (fun acc ep -> acc + f ep) 0 eps in
  ( Stats.Summary.max_value fcts,
    Stats.Summary.median fcts,
    sum Mtp.Endpoint.timeouts,
    sum Mtp.Endpoint.nacks_received,
    qd.Netsim.Qdisc.drops () )

let () =
  let max1, med1, to1, nacks1, drops1 = run ~trim:false in
  let max2, med2, to2, nacks2, drops2 = run ~trim:true in
  Printf.printf
    "%d workers x %d B into a %d-packet queue (scatter-gather incast)\n\n"
    workers reply_bytes queue_pkts;
  Printf.printf
    "drop-tail:  median %.0f us, last reply %.0f us, %d RTOs, %d NACKs, %d drops\n"
    med1 max1 to1 nacks1 drops1;
  Printf.printf
    "trimming:   median %.0f us, last reply %.0f us, %d RTOs, %d NACKs, %d drops\n"
    med2 max2 to2 nacks2 drops2;
  Printf.printf
    "\ntrimming turns every overload into an instant NACK: the query \
     completes %.1fx sooner\n"
    (max1 /. Float.max 1.0 max2)
