(* Bulk data over parallel paths with NDP-style trimming.

   Run:  dune exec examples/multipath_blob.exe

   A 20 MB blob is sent as independent per-chunk messages (the paper's
   bulk-data mode): the message-granular load balancer spreads chunks
   over two unequal paths, each path runs its own pathlet congestion
   controller, and the slow path's trimming queue NACKs overloads
   instead of silently dropping them.  Compare the same blob forced
   onto a single path. *)

let blob_bytes = 20_000_000

let build () =
  let sim = Engine.Sim.create ~seed:11 () in
  let topo = Netsim.Topology.create sim in
  let tp =
    Netsim.Topology.two_path topo ~rate_a:(Engine.Time.gbps 40)
      ~rate_b:(Engine.Time.gbps 10) ~delay_a:(Engine.Time.us 2)
      ~delay_b:(Engine.Time.us 4) ~edge_rate:(Engine.Time.gbps 100)
      ~qdisc_a:(Netsim.Qdisc.trimming ~cap_pkts:64 ())
      ~qdisc_b:(Netsim.Qdisc.trimming ~cap_pkts:64 ())
      ()
  in
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_a ~path_id:1
    ~mode:(Mtp.Mtp_switch.Ecn_mark 16);
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_b ~path_id:2
    ~mode:(Mtp.Mtp_switch.Ecn_mark 16);
  (sim, tp)

let run ~multipath =
  let sim, tp = build () in
  if multipath then
    ignore
      (Mtp.Mtp_switch.msg_lb tp.Netsim.Topology.tp_ingress
         ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)
         ~ports:
           [| tp.Netsim.Topology.tp_port_a; tp.Netsim.Topology.tp_port_b |]
         ~fallback:(Netsim.Routing.static tp.Netsim.Topology.tp_routes));
  let ea = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_src) in
  let eb = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst) in
  let finished_at = ref 0 in
  ignore
    (Mtp.Blob.receiver eb ~port:9000 (fun ~src:_ ~blob_id:_ ~size:_ ->
         finished_at := Engine.Sim.now sim));
  Mtp.Blob.send ea
    ~dst:(Netsim.Node.addr tp.Netsim.Topology.tp_dst)
    ~dst_port:9000 ~blob_id:1 ~size:blob_bytes ~chunk:(16 * 1440) ();
  Engine.Sim.run ~until:(Engine.Time.ms 200) sim;
  let gbps =
    if !finished_at = 0 then 0.0
    else float_of_int (blob_bytes * 8) /. float_of_int !finished_at
  in
  (!finished_at, gbps, Mtp.Endpoint.nacks_received ea)

let () =
  let t1, gbps1, nacks1 = run ~multipath:false in
  let t2, gbps2, nacks2 = run ~multipath:true in
  Printf.printf "single path (40G):      %.2f ms  %.1f Gbps  (%d trim-NACKs)\n"
    (float_of_int t1 /. 1e6) gbps1 nacks1;
  Printf.printf "msg-LB over 40G + 10G:  %.2f ms  %.1f Gbps  (%d trim-NACKs)\n"
    (float_of_int t2 /. 1e6) gbps2 nacks2;
  Printf.printf
    "the blob's chunks are independent messages, so the LB uses both \
     paths: %.2fx faster\n"
    (gbps2 /. Float.max 0.001 gbps1)
