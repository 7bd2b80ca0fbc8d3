(* The leaf-spine exhibit: per-flow vs per-message ECMP on one fabric,
   and the same fabric as the flagship intra-scenario parallel run.

   Every run builds [Topology.leaf_spine] on a partitioned world of one
   partition per leaf ([Netsim.Partition] + [Runner.Epoch]): fabric
   traffic crosses conduits whose delay equals the fabric propagation
   delay, so lookahead = [delay] and the epoch machinery runs on every
   fabric RTT.  The [digest] renders the complete final state in
   integers (per-leaf workload counters, per-link and per-switch
   counters in creation order, per-partition end times) and must be
   byte-identical for any [jobs] value.

   All mutable workload state is partition-local.  Host (l, i) messages
   host ((l+1) mod leaves, i): completions fire at the source (leaf l)
   and deliveries at the destination (leaf l+1), each written into its
   own leaf's slot.  A stream's message boundaries are seen where its
   bytes land, so [Dctcp_flows] counts its completions at the
   destination leaf.  The main domain reads the slots after the run. *)

type scheme = Dctcp_flows | Dctcp_messages | Mtp

type config = {
  leaves : int;
  spines : int;
  hosts_per_leaf : int;
  message_bytes : int;
  duration : Engine.Time.t;
  scheme : scheme;
}

let default =
  { leaves = 4;
    spines = 4;
    hosts_per_leaf = 8;
    message_bytes = 100_000;
    duration = Engine.Time.ms 4;
    scheme = Dctcp_messages }

type output = {
  digest : string;
  goodput_gbps : float;
  uplink_imbalance : float;
  p99_fct_us : float;
  messages : int;
  events : int;
}

(* One leaf's workload counters, written only by its partition. *)
type leaf = {
  mutable rx_bytes : int; (* delivered at hosts in this leaf *)
  mutable messages : int;
  mutable fct_sum : Engine.Time.t;
  mutable fct_max : Engine.Time.t;
  fcts : Stats.Summary.t; (* us *)
}

let complete st fct =
  st.messages <- st.messages + 1;
  st.fct_sum <- st.fct_sum + fct;
  if fct > st.fct_max then st.fct_max <- fct;
  Stats.Summary.add st.fcts (Engine.Time.to_float_us fct)

let seed = 42
let msg_port = 5001

(* Permutation: [f l i l'] for host (l, i) -> (l', i), l' = (l+1) mod
   leaves, in (l, i) order.  Every host is a sender in one pair and a
   receiver in another, so its stacks share one [Host]. *)
let each_pair c f =
  for l = 0 to c.leaves - 1 do
    for i = 0 to c.hosts_per_leaf - 1 do
      f l i ((l + 1) mod c.leaves)
    done
  done

(* One persistent connection per pair: ECMP pins it to a spine.
   Message boundaries are invisible to the network, so a "message" is
   the next [message_bytes] of the stream and its completion time is
   the gap between app-level boundaries. *)
let dctcp_flows c (hosts : Netsim.Host.t array array) leaf =
  let cc = Transport.Tcp.Dctcp in
  let rng = Engine.Rng.create (seed + 17) in
  each_pair c (fun l i l' ->
      let src = hosts.(l).(i) and dst = hosts.(l').(i) and st = leaf.(l') in
      let client = Transport.Tcp.attach ~cc ~snd_buf:400_000 src in
      let server = Transport.Tcp.attach ~cc dst in
      let port = 80 + Netsim.Host.addr src in
      let sim = Netsim.Node.sim (Netsim.Host.node dst) in
      let boundary_started = ref 0 in
      let within = ref 0 in
      Transport.Tcp.listen server ~port (fun conn ->
          boundary_started := Engine.Sim.now sim;
          Transport.Tcp.set_on_data conn (fun _ n ->
              st.rx_bytes <- st.rx_bytes + n;
              within := !within + n;
              while !within >= c.message_bytes do
                within := !within - c.message_bytes;
                complete st (Engine.Sim.now sim - !boundary_started);
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
          if Transport.Tcp.send_buffered conn < c.message_bytes then
            Transport.Tcp.send conn c.message_bytes);
      Transport.Tcp.send conn (2 * c.message_bytes))

(* One DCTCP connection per message, every host listening on one
   port. *)
let dctcp_messages c hosts leaf =
  let module M = Transport.Dctcp.Messaging in
  let stacks =
    Array.mapi
      (fun l row ->
        let st = leaf.(l) in
        Array.map
          (fun h ->
            let stack = Transport.Dctcp.attach ~snd_buf:1_000_000 h in
            M.listen stack ~port:msg_port
              ~on_message:(fun d ->
                st.rx_bytes <- st.rx_bytes + d.Netsim.Transport_intf.msg_size)
              ();
            stack)
          row)
      hosts
  in
  each_pair c (fun l i l' ->
      let dst = Netsim.Host.addr hosts.(l').(i) and st = leaf.(l) in
      ignore
        (Workload.Driver.closed_loop ~size:c.message_bytes
           (fun ~size ~on_complete ->
             M.send_message stacks.(l).(i) ~dst ~dst_port:msg_port ~size
               ~on_complete:(fun fct ->
                 complete st fct;
                 on_complete fct)
               ())))

(* MTP chains over stamped uplinks, each (leaf, spine) link its own
   pathlet (ECN-mark mode has no timers, so stamping is
   partition-local and passive). *)
let mtp c (ls : Netsim.Topology.leaf_spine) hosts leaf =
  Array.iteri
    (fun l row ->
      Array.iteri
        (fun s up ->
          Mtp.Mtp_switch.stamp (Netsim.Link.sim up) up
            ~path_id:((l * c.spines) + s + 1)
            ~mode:(Mtp.Mtp_switch.Ecn_mark 20))
        row)
    ls.Netsim.Topology.ls_uplinks;
  each_pair c (fun l i l' ->
      let src = hosts.(l).(i) and dst = hosts.(l').(i) in
      let ea = Mtp.Endpoint.attach src in
      let eb = Mtp.Endpoint.attach dst in
      (* A port per chain, as for [Dctcp_flows]: the ECMP hash draw, and
         so the extension's table, depends on it (EXPERIMENTS.md). *)
      let port = 80 + Netsim.Host.addr src in
      Mtp.Endpoint.bind eb ~port (fun d ->
          leaf.(l').rx_bytes <- leaf.(l').rx_bytes + d.Mtp.Endpoint.dl_size);
      ignore
        (Workload.Driver.closed_loop ~size:c.message_bytes
           (fun ~size ~on_complete ->
             Mtp.Endpoint.Messaging.send_message ea
               ~dst:(Netsim.Host.addr dst) ~dst_port:port ~size
               ~on_complete:(fun fct ->
                 complete leaf.(l) fct;
                 on_complete fct)
               ())))

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

let digest topo sims hosts leaf =
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  Array.iteri
    (fun l st ->
      line "part %d msgs=%d rx_bytes=%d fct_sum=%d fct_max=%d" l st.messages
        st.rx_bytes st.fct_sum st.fct_max)
    leaf;
  Array.iteri
    (fun i l ->
      let q = Netsim.Link.qdisc l in
      line "link %d %s sends=%d delivered=%d drops=%d marks=%d bytes=%d" i
        (Netsim.Link.name l) (Netsim.Link.sends l)
        (Netsim.Link.delivered_pkts l)
        (q.Netsim.Qdisc.drops ())
        (q.Netsim.Qdisc.marks ())
        (Netsim.Link.bytes_sent l))
    (Netsim.Topology.links topo);
  Array.iter
    (fun sw ->
      line "switch %s rx=%d fwd=%d drop=%d" (Netsim.Switch.name sw)
        (Netsim.Switch.received sw)
        (Netsim.Switch.forwarded sw)
        (Netsim.Switch.dropped sw))
    (Netsim.Topology.switches topo);
  Array.iter
    (Array.iter (fun h ->
         line "host %d unclaimed=%d" (Netsim.Host.addr h)
           (Netsim.Host.unclaimed h)))
    hosts;
  Array.iteri (fun p s -> line "part %d end t=%d" p (Engine.Sim.now s)) sims;
  Buffer.contents buf

let run ?(jobs = 1) (c : config) =
  if c.leaves < 2 then invalid_arg "Ext_leafspine.run: need >= 2 leaves";
  let world = Netsim.Partition.create ~seed ~nparts:c.leaves () in
  let topo = Netsim.Partition.topology world in
  let ls =
    Netsim.Topology.leaf_spine topo ~leaves:c.leaves ~spines:c.spines
      ~hosts_per_leaf:c.hosts_per_leaf
      ~host_rate:(Engine.Time.gbps 10)
      ~fabric_rate:(Engine.Time.gbps 10) ~delay:(Engine.Time.us 2)
      ~uplink_qdisc:(fun () ->
        Netsim.Qdisc.ecn ~cap_pkts:128 ~mark_threshold:20 ())
      ()
  in
  let leaf =
    Array.init c.leaves (fun _ ->
        { rx_bytes = 0; messages = 0; fct_sum = 0; fct_max = 0;
          fcts = Stats.Summary.create () })
  in
  let hosts =
    Array.map (Array.map Netsim.Host.create) ls.Netsim.Topology.ls_hosts
  in
  (match c.scheme with
  | Dctcp_flows -> dctcp_flows c hosts leaf
  | Dctcp_messages -> dctcp_messages c hosts leaf
  | Mtp -> mtp c ls hosts leaf);
  Netsim.Partition.run ~jobs ~until:c.duration world;
  (* Post-run, main domain: merge and render. *)
  let fcts = Stats.Summary.create () in
  Array.iter
    (fun st ->
      Array.iter (Stats.Summary.add fcts) (Stats.Summary.samples st.fcts))
    leaf;
  let sum f = Array.fold_left (fun a x -> a + f x) 0 in
  let sims = Array.init c.leaves (Netsim.Partition.sim world) in
  { digest = digest topo sims hosts leaf;
    goodput_gbps =
      float_of_int (sum (fun st -> st.rx_bytes) leaf * 8)
      /. float_of_int c.duration;
    uplink_imbalance = imbalance ls;
    p99_fct_us =
      (if Stats.Summary.count fcts = 0 then nan
       else Stats.Summary.percentile fcts 99.0);
    messages = sum (fun st -> st.messages) leaf;
    events = sum Engine.Sim.events_processed sims }

(* The extension row: per-flow vs per-message ECMP at 4x2x4. *)
let result () =
  let c =
    { leaves = 4; spines = 2; hosts_per_leaf = 4; message_bytes = 250_000;
      duration = Engine.Time.ms 10; scheme = Dctcp_flows }
  in
  let tcp = run c and mtp = run { c with scheme = Mtp } in
  let table =
    Stats.Table.create
      ~columns:
        [ "scheme"; "aggregate goodput (Gbps)"; "uplink max/min";
          "p99 message FCT (us)" ]
  in
  let row name o =
    Stats.Table.add_rowf table "%s | %.1f | %.1f | %.0f" name o.goodput_gbps
      o.uplink_imbalance o.p99_fct_us
  in
  row "DCTCP flows over ECMP" tcp;
  row "MTP messages over ECMP" mtp;
  Exp_common.make
    ~title:
      "Extension: 4-leaf/2-spine fabric, permutation traffic (per-flow vs \
       per-message ECMP)"
    ~table
    ~notes:
      [ Printf.sprintf
          "message-granular hashing balances the fabric: uplink imbalance \
           %.1f -> %.1f, goodput %.1f -> %.1f Gbps"
          tcp.uplink_imbalance mtp.uplink_imbalance tcp.goodput_gbps
          mtp.goodput_gbps ]
    ()

let par_result ?(jobs = 1) ?(config = default) () =
  let o = run ~jobs config in
  let table =
    Stats.Table.create
      ~columns:
        [ "transport"; "jobs"; "messages"; "aggregate goodput (Gbps)";
          "p99 message FCT (us)"; "events" ]
  in
  Stats.Table.add_rowf table "%s | %d | %d | %.1f | %.0f | %d"
    (match config.scheme with
    | Dctcp_flows -> "DCTCP flows"
    | Dctcp_messages -> "DCTCP"
    | Mtp -> "MTP")
    jobs o.messages o.goodput_gbps o.p99_fct_us o.events;
  Exp_common.make
    ~title:
      (Printf.sprintf
         "Extension: partitioned %d-leaf/%d-spine fabric, one scenario on \
          %d worker(s) (conservative parallel DES)"
         config.leaves config.spines jobs)
    ~table
    ~notes:
      [ "single-scenario parallelism: per-leaf domains, lookahead = fabric \
         delay, deterministic epoch barriers (digest byte-identical for any \
         --jobs)" ]
    ()
