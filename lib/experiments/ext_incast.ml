(* Incast / RPC fan-out at fabric scale: one aggregator host in a
   k-ary fat-tree collects a response from [fanout] senders spread
   across the fabric, all firing at t=0 — the classic partition/
   aggregate pattern whose tail latency TCP incast collapse ruins.
   Every scheme runs through the unified Transport_intf driver; the
   bottleneck is the aggregator's edge->host downlink. *)

type config = {
  k : int;
  fanout : int;
  resp_bytes : int;
  duration : Engine.Time.t;
}

let default =
  { k = 8; fanout = 48; resp_bytes = 50_000; duration = Engine.Time.ms 50 }

let smoke = { default with k = 4; fanout = 12; duration = Engine.Time.ms 20 }

type row = {
  r_id : string;
  r_completed : int;  (** Responses fully delivered to the aggregator. *)
  r_p50_fct_us : float;
  r_p99_fct_us : float;
  r_collect_us : float;
      (** Time of the last response delivery — the RPC's completion. *)
  r_retransmits : int;
}

type output = { cfg : config; rows : row list }

let port = 80

(* Senders spread deterministically across the fabric: stride through
   host indices 1..n-1 with a step coprime to n-1, so pods and edges
   are hit roughly uniformly and no index repeats. *)
let sender_indices ~nhosts ~fanout =
  let m = nhosts - 1 in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let step = ref (max 1 ((m / 3) + 1)) in
  while gcd !step m <> 1 do
    incr step
  done;
  Array.init fanout (fun j -> 1 + (j * !step mod m))

let build cfg ~ecn =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let qdisc =
    if ecn then fun () -> Netsim.Qdisc.ecn ~cap_pkts:128 ~mark_threshold:20 ()
    else fun () -> Netsim.Qdisc.fifo ~cap_pkts:128 ()
  in
  let ft =
    Netsim.Topology.fat_tree topo ~k:cfg.k
      ~host_rate:(Engine.Time.gbps 10) ~fabric_rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ~uplink_qdisc:qdisc ~host_qdisc:qdisc ()
  in
  (sim, ft)

(* The scheme-agnostic driver: [attach] builds a packed transport on a
   host; [prep] runs scheme-specific fabric setup (MTP pathlet
   stamping) before any traffic. *)
let drive cfg ~id ~ecn ?(prep = fun _ _ -> ()) ~attach () =
  let module T = Netsim.Transport_intf in
  let sim, ft = build cfg ~ecn in
  prep sim ft;
  let nhosts = Array.length ft.Netsim.Topology.ft_hosts in
  if cfg.fanout > nhosts - 1 then
    invalid_arg "Ext_incast: fanout exceeds host count";
  let agg_host = Netsim.Host.create ft.Netsim.Topology.ft_hosts.(0) in
  let aggregator = attach agg_host in
  let fcts = Stats.Summary.create () in
  let completed = ref 0 in
  let last_at = ref 0 in
  T.listen aggregator ~port
    ~on_message:(fun d ->
      incr completed;
      last_at := Engine.Sim.now sim;
      Stats.Summary.add fcts (Engine.Time.to_float_us d.T.msg_latency))
    ();
  let agg_addr = Netsim.Host.addr agg_host in
  let senders =
    Array.map
      (fun i ->
        attach (Netsim.Host.create ft.Netsim.Topology.ft_hosts.(i)))
      (sender_indices ~nhosts ~fanout:cfg.fanout)
  in
  (* Every response fires at t=0: maximal synchronized incast. *)
  Array.iter
    (fun s ->
      T.send_message s ~dst:agg_addr ~dst_port:port ~size:cfg.resp_bytes ())
    senders;
  Engine.Sim.run ~until:cfg.duration sim;
  let retx =
    Array.fold_left
      (fun acc s -> acc + (T.stats s).T.retransmits)
      0 senders
  in
  { r_id = id;
    r_completed = !completed;
    r_p50_fct_us =
      (if Stats.Summary.count fcts = 0 then nan
       else Stats.Summary.percentile fcts 50.0);
    r_p99_fct_us =
      (if Stats.Summary.count fcts = 0 then nan
       else Stats.Summary.percentile fcts 99.0);
    r_collect_us =
      (if !completed < cfg.fanout then nan
       else Engine.Time.to_float_us !last_at);
    r_retransmits = retx }

let run_tcp cfg =
  drive cfg ~id:"tcp" ~ecn:false
    ~attach:(fun h ->
      Netsim.Transport_intf.pack
        (module Transport.Tcp.Messaging)
        (Transport.Tcp.attach ~snd_buf:1_000_000 h))
    ()

let run_dctcp cfg =
  drive cfg ~id:"dctcp" ~ecn:true
    ~attach:(fun h ->
      Netsim.Transport_intf.pack
        (module Transport.Dctcp.Messaging)
        (Transport.Dctcp.attach ~snd_buf:1_000_000 h))
    ()

(* MTP congestion control is per pathlet: stamp the aggregator's
   edge->host downlink (the incast bottleneck — host 0 is port 0 of
   edge 0, hosts being wired first) so senders see its ECN marks. *)
let run_mtp cfg =
  drive cfg ~id:"mtp" ~ecn:true
    ~prep:(fun sim ft ->
      Mtp.Mtp_switch.stamp sim
        (Netsim.Switch.port ft.Netsim.Topology.ft_edges.(0) 0)
        ~path_id:1 ~mode:(Mtp.Mtp_switch.Ecn_mark 20))
    ~attach:(fun h ->
      Netsim.Transport_intf.pack
        (module Mtp.Endpoint.Messaging)
        (Mtp.Endpoint.attach h))
    ()

let run ?(config = default) () =
  { cfg = config; rows = [ run_tcp config; run_dctcp config; run_mtp config ] }

let result ?config () =
  let o = run ?config () in
  let table =
    Stats.Table.create
      ~columns:
        [ "scheme"; "completed"; "p50 FCT (us)"; "p99 FCT (us)";
          "collect (us)"; "retx" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_rowf table "%s | %d | %.0f | %.0f | %.0f | %d" r.r_id
        r.r_completed r.r_p50_fct_us r.r_p99_fct_us r.r_collect_us
        r.r_retransmits)
    o.rows;
  let c = o.cfg in
  Exp_common.make
    ~title:
      (Printf.sprintf
         "Extension: incast fan-in on a k=%d fat-tree (%d hosts, %d \
          responders x %dKB)"
         c.k
         (c.k * c.k * c.k / 4)
         c.fanout (c.resp_bytes / 1000))
    ~table
    ~notes:
      [ "all responses fire at t=0 into one aggregator: the edge->host \
         downlink is the incast bottleneck";
        "message-native transport avoids synchronized loss-recovery \
         stalls that inflate the TCP collect tail" ]
    ()
