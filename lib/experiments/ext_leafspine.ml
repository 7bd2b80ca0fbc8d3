type scheme_out = {
  goodput_gbps : float;
  uplink_imbalance : float; (* max/min bytes over the first leaf's uplinks *)
  p99_fct_us : float;
}

type output = { tcp_ecmp : scheme_out; mtp_ecmp : scheme_out }

let leaves = 4
let spines = 2
let hosts_per_leaf = 4

let build ~seed =
  let sim = Engine.Sim.create ~seed () in
  let topo = Netsim.Topology.create sim in
  let ls =
    Netsim.Topology.leaf_spine topo ~leaves ~spines ~hosts_per_leaf
      ~host_rate:(Engine.Time.gbps 10) ~fabric_rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2)
      ~uplink_qdisc:(fun () ->
        Netsim.Qdisc.ecn ~cap_pkts:128 ~mark_threshold:20 ())
      ()
  in
  (sim, ls)

(* Permutation: host (l, i) streams to host ((l+1) mod leaves, i).
   Every host is a sender in one pair and a receiver in another, so
   its two stacks share one [Host]. *)
let pairs (ls : Netsim.Topology.leaf_spine) =
  let hosts = Array.map (Array.map Netsim.Host.create) ls.ls_hosts in
  List.concat
    (List.init leaves (fun l ->
         List.init hosts_per_leaf (fun i ->
             (hosts.(l).(i), hosts.((l + 1) mod leaves).(i)))))

(* Worst max/min uplink-byte ratio across all leaves: a leaf whose
   flows all hashed onto one spine shows up here. *)
let imbalance (ls : Netsim.Topology.leaf_spine) =
  Array.fold_left
    (fun worst row ->
      let bytes = Array.map Netsim.Link.bytes_sent row in
      let mx = Array.fold_left max 1 bytes in
      let mn = Array.fold_left min max_int bytes in
      Float.max worst (float_of_int mx /. float_of_int (max 1 mn)))
    1.0 ls.Netsim.Topology.ls_uplinks

let summarize fcts ~total_bytes ~duration ~ls =
  { goodput_gbps = float_of_int (total_bytes * 8) /. float_of_int duration;
    uplink_imbalance = imbalance ls;
    p99_fct_us =
      (if Stats.Summary.count fcts = 0 then nan
       else Stats.Summary.percentile fcts 99.0) }

let run_tcp ~duration ~message_bytes ~seed =
  let sim, ls = build ~seed in
  let cc = Transport.Tcp.Dctcp in
  let fcts = Stats.Summary.create () in
  let total = ref 0 in
  let rng = Engine.Rng.create (seed + 17) in
  List.iter
    (fun (src, dst) ->
      let client = Transport.Tcp.attach ~cc ~snd_buf:400_000 src in
      let server = Transport.Tcp.attach ~cc dst in
      let port = 80 + Netsim.Host.addr src in
      (* One persistent connection per pair: ECMP pins it to a spine;
         message boundaries are invisible to the network, so a
         "message" is the next [message_bytes] of the stream and its
         completion time is the gap between app-level boundaries. *)
      let boundary_started = ref 0 in
      let within = ref 0 in
      Transport.Tcp.listen server ~port (fun conn ->
          boundary_started := Engine.Sim.now sim;
          Transport.Tcp.set_on_data conn (fun _ n ->
              total := !total + n;
              within := !within + n;
              while !within >= message_bytes do
                within := !within - message_bytes;
                Stats.Summary.add fcts
                  (Engine.Time.to_float_us
                     (Engine.Sim.now sim - !boundary_started));
                boundary_started := Engine.Sim.now sim
              done));
      (* Randomized ephemeral port, like a real stack: the ECMP spine
         choice of each long-lived flow is a coin flip. *)
      let conn =
        Transport.Tcp.connect client ~dst:(Netsim.Host.addr dst)
          ~dst_port:port
          ~src_port:(10_000 + Engine.Rng.int rng 50_000)
          ()
      in
      Transport.Tcp.set_on_drain conn (fun conn ->
          if Transport.Tcp.send_buffered conn < message_bytes then
            Transport.Tcp.send conn message_bytes);
      Transport.Tcp.send conn (2 * message_bytes))
    (pairs ls);
  Engine.Sim.run ~until:duration sim;
  summarize fcts ~total_bytes:!total ~duration ~ls

let run_mtp ~duration ~message_bytes ~seed =
  let sim, ls = build ~seed in
  (* Stamp every leaf's uplinks, each (leaf, spine) link its own
     pathlet. *)
  Array.iteri
    (fun l row ->
      Array.iteri
        (fun s link ->
          Mtp.Mtp_switch.stamp sim link
            ~path_id:((l * spines) + s + 1)
            ~mode:(Mtp.Mtp_switch.Ecn_mark 20))
        row)
    ls.Netsim.Topology.ls_uplinks;
  let total = ref 0 in
  let drivers =
    List.map
      (fun (src, dst) ->
        let ea = Mtp.Endpoint.attach src in
        let eb = Mtp.Endpoint.attach dst in
        let port = 80 + Netsim.Host.addr src in
        Mtp.Endpoint.bind eb ~port (fun d ->
            total := !total + d.Mtp.Endpoint.dl_size);
        Workload.Driver.closed_loop ~size:message_bytes
          (fun ~size ~on_complete ->
            Mtp.Endpoint.Messaging.send_message ea ~dst:(Netsim.Host.addr dst)
              ~dst_port:port ~on_complete ~size ()))
      (pairs ls)
  in
  Engine.Sim.run ~until:duration sim;
  summarize (Workload.Driver.pooled_fcts drivers) ~total_bytes:!total
    ~duration ~ls

let run () =
  let duration = Engine.Time.ms 10 and message_bytes = 250_000 and seed = 42 in
  { tcp_ecmp = run_tcp ~duration ~message_bytes ~seed;
    mtp_ecmp = run_mtp ~duration ~message_bytes ~seed }

let result () =
  let o = run () in
  let table =
    Stats.Table.create
      ~columns:
        [ "scheme"; "aggregate goodput (Gbps)"; "uplink max/min";
          "p99 message FCT (us)" ]
  in
  let row name s =
    Stats.Table.add_rowf table "%s | %.1f | %.1f | %.0f" name s.goodput_gbps
      s.uplink_imbalance s.p99_fct_us
  in
  row "DCTCP flows over ECMP" o.tcp_ecmp;
  row "MTP messages over ECMP" o.mtp_ecmp;
  Exp_common.make
    ~title:
      "Extension: 4-leaf/2-spine fabric, permutation traffic (per-flow vs \
       per-message ECMP)"
    ~table
    ~notes:
      [ Printf.sprintf
          "message-granular hashing balances the fabric: uplink imbalance \
           %.1f -> %.1f, goodput %.1f -> %.1f Gbps"
          o.tcp_ecmp.uplink_imbalance o.mtp_ecmp.uplink_imbalance
          o.tcp_ecmp.goodput_gbps o.mtp_ecmp.goodput_gbps ]
    ()
