(* The five benchmark workloads, built only from the libraries' public
   APIs.  Each [setup] returns a [world] ready to run: topology, stacks
   and traffic installed, conservation ledger watching every device.
   With [~traced:true] the same world is also wrapped by [Span] (one
   accumulator per simulator); the wrappers must not change the
   simulation, which the benchmark checks by comparing digests.

   Sizes: [Full] is the measured configuration (1-3 s per repetition
   on a 2-core host); [Smoke] is about 1/50 of the work, for
   [dune runtest]. *)

open Engine

type size = Full | Smoke

(* What the benchmark's own callbacks observe.  One per simulator: in
   the partitioned workload a callback only ever touches the record
   of the partition it runs in. *)
type obs = {
  lat : Stats.Summary.t;  (** Message FCT, or raw packet delay, in us. *)
  mutable offered : int;  (** Messages (raw: packets) handed to a sender. *)
  mutable completed : int;
  mutable fct_sum : Time.t;
  mutable payload : int;  (** Bytes delivered to receivers. *)
  mutable active_max : int;  (** Largest MTP sender backlog sampled. *)
  mutable pending_max : int;  (** Largest event-heap size sampled. *)
}

let obs () =
  { lat = Stats.Summary.create (); offered = 0; completed = 0; fct_sum = 0;
    payload = 0; active_max = 0; pending_max = 0 }

type world = {
  sims : Sim.t array;  (** One per partition. *)
  run : jobs:int -> unit;
  duration : Time.t;
  links : Netsim.Link.t array;  (** Every link, in a fixed order. *)
  switches : Netsim.Switch.t array;
  pool : Netsim.Packet.pool option;  (** The raw sources' packet pool. *)
  obs : obs array;  (** Parallel to [sims]. *)
  stacks : Netsim.Transport_intf.packed array;
  mtp : Mtp.Endpoint.t array;
  ledger : Check.Ledger.t;
  spans : Span.t array;  (** Parallel to [sims]; empty when untraced. *)
}

(* Why each workload exists, and its loop type, is recorded in
   BENCHMARK.json and bench/suite/README.md. *)
type spec = {
  name : string;
  jobs : int;  (** Domains the measured run uses. *)
  setup : size -> seed:int -> traced:bool -> world;
}

let sample_pending o sim =
  let n = Sim.pending sim in
  if n > o.pending_max then o.pending_max <- n

let complete o fct =
  o.completed <- o.completed + 1;
  o.fct_sum <- o.fct_sum + fct;
  Stats.Summary.add o.lat (Time.to_float_us fct)

(* Every link of a switched fabric is a switch port or a host uplink. *)
let links_of ~switches ~hosts =
  Array.append
    (Array.concat
       (Array.to_list
          (Array.map
             (fun sw -> Array.init (Netsim.Switch.port_count sw) (Netsim.Switch.port sw))
             switches)))
    (Array.map Netsim.Node.uplink hosts)

let watch ?pool links switches =
  let l = Check.Ledger.create () in
  Array.iter (Check.Ledger.watch_link l) links;
  Array.iter (Check.Ledger.watch_switch l) switches;
  Option.iter (Check.Ledger.watch_pool l) pool;
  l

let spans_for ~traced n = if traced then Array.init n (fun _ -> Span.create ()) else [||]

(* [f ()] as a send span of simulator [p] when traced. *)
let sending spans p f = if Array.length spans = 0 then f () else Span.span spans.(p) Span.send f ()

let trace_links spans ~part links =
  if Array.length spans > 0 then Array.iteri (fun i l -> Span.trace_link spans.(part i) l) links

let trace_hosts spans ~part nodes =
  if Array.length spans > 0 then Array.iteri (fun i n -> Span.trace_rx spans.(part i) n) nodes

let trace_ecmp spans switches routes =
  if Array.length spans > 0 then
    Array.iteri
      (fun i sw -> Span.trace_forward spans.(0) sw (Netsim.Routing.ecmp routes.(i)))
      switches

(* Seeded destination permutation: host i of each leaf sends to host
   [perm.(leaf).(i)] of the next leaf. *)
let permutation ~seed ~leaves ~hosts_per_leaf =
  let rng = Rng.create seed in
  Array.init leaves (fun _ ->
      let a = Array.init hosts_per_leaf Fun.id in
      for i = hosts_per_leaf - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      a)

(* ------------------------------------------------------------------ *)
(* fabric-raw: engine, links, qdiscs, switches, routing and the packet
   pool, with no transport at all. *)

let fabric_raw size ~seed ~traced =
  let k, duration =
    match size with Full -> (16, Time.us 250) | Smoke -> (8, Time.us 160)
  in
  let host_rate = Time.gbps 10 in
  let sim = Sim.create ~seed () in
  let ft =
    Netsim.Topology.fat_tree (Netsim.Topology.create sim) ~k ~host_rate
      ~fabric_rate:(Time.gbps 40) ~delay:(Time.us 2) ()
  in
  let hosts = ft.Netsim.Topology.ft_hosts in
  let n = Array.length hosts in
  let switches =
    Array.concat
      [ ft.Netsim.Topology.ft_edges; ft.Netsim.Topology.ft_aggs;
        ft.Netsim.Topology.ft_cores ]
  in
  let links = links_of ~switches ~hosts in
  let pool = Netsim.Packet.pool sim in
  let o = obs () in
  let spans = spans_for ~traced 1 in
  Array.iter
    (fun h ->
      Netsim.Node.set_handler h (fun p ->
          let delay = Sim.now sim - p.Netsim.Packet.created_at in
          complete o delay;
          o.payload <- o.payload + p.Netsim.Packet.size;
          Netsim.Packet.release pool p))
    hosts;
  trace_links spans ~part:(fun _ -> 0) links;
  trace_hosts spans ~part:(fun _ -> 0) hosts;
  trace_ecmp spans ft.Netsim.Topology.ft_edges ft.Netsim.Topology.ft_edge_routes;
  trace_ecmp spans ft.Netsim.Topology.ft_aggs ft.Netsim.Topology.ft_agg_routes;
  trace_ecmp spans ft.Netsim.Topology.ft_cores ft.Netsim.Topology.ft_core_routes;
  (* Open loop: every host sends to its antipodal host, Poisson at one
     packet per [gap] on average (half line rate for the 1500 B
     sources; even hosts send 64 B packets).  Each source draws its
     gaps and flow hashes from its own seeded stream, so ECMP spreads
     its packets over all paths and queueing differs per seed. *)
  let mean_gap = float_of_int (2 * Time.tx_time ~bytes:1500 ~rate:host_rate) in
  let rng = Rng.create seed in
  Array.iteri
    (fun i h ->
      let size = if i mod 2 = 0 then 64 else 1500 in
      let src = Netsim.Node.addr h in
      let dst = Netsim.Node.addr hosts.((i + (n / 2)) mod n) in
      let uplink = Netsim.Node.uplink h in
      (* A xorshift stream seeded from [rng]: unlike [Rng] draws it
         allocates nothing, so the generator adds no minor words to
         the per-hop count. *)
      let state = ref (Rng.int rng max_int lor 1) in
      let draw () =
        let s = !state in
        let s = s lxor (s lsl 13) in
        let s = s lxor (s lsr 7) in
        let s = s lxor (s lsl 17) in
        state := s;
        s
      in
      let next () =
        let u = float_of_int (draw () land 0xFFFFFFFFFFFF) /. 281474976710656.0 in
        Sim.now sim + 1 + int_of_float (-.mean_gap *. log (1.0 -. u))
      in
      let emit () =
        Netsim.Link.send uplink
          (Netsim.Packet.recycle pool ~flow_hash:((draw () lsr 20) land 0xFFFFFF) ~src ~dst
             ~size ())
      in
      let timer = ref None in
      let fire () =
        o.offered <- o.offered + 1;
        sample_pending o sim;
        sending spans 0 emit;
        let at = next () in
        if at < duration then Option.iter (Sim.arm ~at) !timer
      in
      let tm = Sim.timer sim fire in
      timer := Some tm;
      Sim.arm tm ~at:(next ()))
    hosts;
  { sims = [| sim |];
    run = (fun ~jobs:_ -> Sim.run ~until:duration sim);
    duration; links; switches; pool = Some pool; obs = [| o |]; stacks = [||];
    mtp = [||]; ledger = watch ~pool links switches; spans }

(* ------------------------------------------------------------------ *)
(* Leaf-spine closed loop: every host keeps one 100 KB message
   outstanding to its permutation partner on the next leaf. *)

type transport = Dctcp | Mtp

let leaf_spine_dims = function
  | Full -> (8, 8, 16, Time.ms 4)
  | Smoke -> (4, 4, 8, Time.ms 1)

let msg_bytes = 100_000
let msg_port = 5001
let ecn_uplink () = Netsim.Qdisc.ecn ~cap_pkts:128 ~mark_threshold:20 ()

let attach transport h =
  match transport with
  | Dctcp ->
    ( Netsim.Transport_intf.pack
        (module Transport.Dctcp.Messaging)
        (Transport.Dctcp.attach ~snd_buf:1_000_000 h),
      None )
  | Mtp ->
    let ep = Mtp.Endpoint.attach h in
    (Netsim.Transport_intf.pack (module Mtp.Endpoint.Messaging) ep, Some ep)

(* Stacks, listeners and closed-loop chains over [hosts.(leaf).(i)],
   whose leaf [l] lives in simulator [part l]; returns the stacks and
   MTP endpoints in (leaf, host) order. *)
let closed_loop ~transport ~seed ~hosts ~sims ~part ~obs ~spans =
  let leaves = Array.length hosts in
  let hosts_per_leaf = Array.length hosts.(0) in
  let stacks =
    Array.map (Array.map (fun n -> attach transport (Netsim.Host.create n))) hosts
  in
  Array.iteri
    (fun l per_leaf ->
      Array.iter
        (fun (stack, _) ->
          let o = obs.(part l) in
          Netsim.Transport_intf.listen stack ~port:msg_port
            ~on_message:(fun d ->
              o.payload <- o.payload + d.Netsim.Transport_intf.msg_size)
            ())
        per_leaf)
    stacks;
  let perm = permutation ~seed ~leaves ~hosts_per_leaf in
  for l = 0 to leaves - 1 do
    let p = part l in
    let o = obs.(p) and sim = sims.(p) in
    for i = 0 to hosts_per_leaf - 1 do
      let stack, ep = stacks.(l).(i) in
      let dst = Netsim.Node.addr hosts.((l + 1) mod leaves).(perm.(l).(i)) in
      let rec chain () =
        o.offered <- o.offered + 1;
        sample_pending o sim;
        sending spans p (fun () ->
            Netsim.Transport_intf.send_message stack ~dst ~dst_port:msg_port
              ~on_complete:(fun fct ->
                complete o fct;
                chain ())
              ~size:msg_bytes ());
        Option.iter
          (fun ep ->
            o.active_max <- max o.active_max (Mtp.Endpoint.active_messages ep))
          ep
      in
      chain ()
    done
  done;
  let flat = Array.concat (Array.to_list stacks) in
  (Array.map fst flat, Array.of_list (List.filter_map snd (Array.to_list flat)))

let leaf_spine transport size ~seed ~traced =
  let leaves, spines, hosts_per_leaf, duration = leaf_spine_dims size in
  let sim = Sim.create ~seed () in
  let ls =
    Netsim.Topology.leaf_spine (Netsim.Topology.create sim) ~leaves ~spines
      ~hosts_per_leaf ~host_rate:(Time.gbps 10) ~fabric_rate:(Time.gbps 10)
      ~delay:(Time.us 2) ~uplink_qdisc:ecn_uplink ()
  in
  if transport = Mtp then
    Array.iteri
      (fun l row ->
        Array.iteri
          (fun s link ->
            Mtp.Mtp_switch.stamp sim link
              ~path_id:((l * spines) + s + 1)
              ~mode:(Mtp.Mtp_switch.Ecn_mark 20))
          row)
      ls.Netsim.Topology.ls_uplinks;
  let hosts = Array.concat (Array.to_list ls.Netsim.Topology.ls_hosts) in
  let switches =
    Array.append ls.Netsim.Topology.ls_leaves ls.Netsim.Topology.ls_spines
  in
  let links = links_of ~switches ~hosts in
  let o = obs () in
  let spans = spans_for ~traced 1 in
  let stacks, mtp =
    closed_loop ~transport ~seed ~hosts:ls.Netsim.Topology.ls_hosts
      ~sims:[| sim |] ~part:(fun _ -> 0) ~obs:[| o |] ~spans
  in
  trace_links spans ~part:(fun _ -> 0) links;
  trace_hosts spans ~part:(fun _ -> 0) hosts;
  (* Spine routes are not exposed by the builder: spines stay unwrapped. *)
  trace_ecmp spans ls.Netsim.Topology.ls_leaves ls.Netsim.Topology.ls_leaf_routes;
  { sims = [| sim |];
    run = (fun ~jobs:_ -> Sim.run ~until:duration sim);
    duration; links; switches; pool = None; obs = [| o |]; stacks; mtp;
    ledger = watch links switches; spans }

(* leafspine-dctcp's fabric and traffic on the partitioned builder: one
   leaf per partition, conduits across, [Runner.Epoch] at jobs = 2. *)
let leaf_spine_par size ~seed ~traced =
  let leaves, spines, hosts_per_leaf, duration = leaf_spine_dims size in
  let pls =
    Netsim.Partition.leaf_spine ~seed ~leaves ~spines ~hosts_per_leaf
      ~host_rate:(Time.gbps 10) ~fabric_rate:(Time.gbps 10) ~delay:(Time.us 2)
      ~uplink_qdisc:ecn_uplink ()
  in
  let world = pls.Netsim.Partition.pls_world in
  let sims = Array.init leaves (Netsim.Partition.sim world) in
  let obs = Array.init leaves (fun _ -> obs ()) in
  let spans = spans_for ~traced leaves in
  let stacks, mtp =
    closed_loop ~transport:Dctcp ~seed ~hosts:pls.Netsim.Partition.pls_hosts
      ~sims ~part:Fun.id ~obs ~spans
  in
  let links = pls.Netsim.Partition.pls_links in
  let hosts = Array.concat (Array.to_list pls.Netsim.Partition.pls_hosts) in
  trace_links spans ~part:(fun i -> pls.Netsim.Partition.pls_link_part.(i)) links;
  trace_hosts spans ~part:(fun i -> i / hosts_per_leaf) hosts;
  (* No routing table of the partitioned builder is exposed: routing
     time stays in [sim.self_s] here. *)
  let switches =
    Array.append pls.Netsim.Partition.pls_leaves pls.Netsim.Partition.pls_spines
  in
  { sims;
    run = (fun ~jobs -> Netsim.Partition.run ~jobs ~until:duration world);
    duration; links; switches; pool = None; obs; stacks; mtp;
    ledger = watch links switches; spans }

(* ------------------------------------------------------------------ *)
(* failover-mtp: the two-path fabric of the failover exhibit, MTP
   without exclusion, an open-loop backlog through a link failure. *)

let failover size ~seed ~traced =
  (* Half the exhibit's timeline, so a repetition takes about 2 s;
     smoke keeps the same shape, 10 times shorter again. *)
  let scale t = match size with Full -> t | Smoke -> t / 10 in
  let t_fail = scale (Time.ms 2) and detect = scale (Time.ms 1) in
  let t_restore = scale (Time.ms 4) and duration = scale (Time.ms 6) in
  let interval = Time.us 10 in
  let sim = Sim.create ~seed () in
  let fifo () = Netsim.Qdisc.fifo ~cap_pkts:128 () in
  let tp =
    Netsim.Topology.two_path (Netsim.Topology.create sim)
      ~rate_a:(Time.gbps 100) ~rate_b:(Time.gbps 100) ~delay_a:(Time.us 1)
      ~delay_b:(Time.us 1) ~edge_rate:(Time.gbps 200) ~qdisc_a:(fifo ())
      ~qdisc_b:(fifo ()) ()
  in
  let link_a = tp.Netsim.Topology.tp_link_a in
  let fault = Netsim.Fault.plan ~seed sim in
  Netsim.Fault.link_down fault ~at:t_fail link_a;
  Netsim.Fault.link_up fault ~at:t_restore link_a;
  Netsim.Fault.reroute fault tp.Netsim.Topology.tp_routes
    ~port:tp.Netsim.Topology.tp_port_a ~detect link_a;
  Mtp.Mtp_switch.stamp sim link_a ~path_id:1 ~mode:(Mtp.Mtp_switch.Ecn_mark 20);
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_b ~path_id:2
    ~mode:(Mtp.Mtp_switch.Ecn_mark 20);
  let spans = spans_for ~traced 1 in
  let forward =
    Mtp.Mtp_switch.exclusion_aware
      ~port_paths:[ (tp.Netsim.Topology.tp_port_a, 1); (tp.Netsim.Topology.tp_port_b, 2) ]
      tp.Netsim.Topology.tp_routes
  in
  let ingress = tp.Netsim.Topology.tp_ingress in
  if traced then Span.trace_forward spans.(0) ingress forward
  else Netsim.Switch.set_forward ingress forward;
  let client =
    Mtp.Endpoint.attach ~exclusion:false (Netsim.Host.create tp.Netsim.Topology.tp_src)
  in
  let server = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst) in
  let o = obs () in
  Mtp.Endpoint.bind server ~port:msg_port (fun d ->
      o.payload <- o.payload + d.Mtp.Endpoint.dl_size);
  let hosts = [| tp.Netsim.Topology.tp_src; tp.Netsim.Topology.tp_dst |] in
  let switches = [| ingress; tp.Netsim.Topology.tp_egress |] in
  let links = links_of ~switches ~hosts in
  trace_links spans ~part:(fun _ -> 0) links;
  trace_hosts spans ~part:(fun _ -> 0) hosts;
  (* Open loop: one message per [interval] whatever the backlog, each
     from a seeded source port (the flow hash ECMP splits on). *)
  let dst = Netsim.Node.addr tp.Netsim.Topology.tp_dst in
  let rng = Rng.create seed in
  let send () =
    ignore
      (Mtp.Endpoint.send client ~dst ~dst_port:msg_port
         ~src_port:(30_000 + Rng.int rng 30_000) ~on_complete:(complete o)
         ~size:msg_bytes ())
  in
  ignore
    (Sim.periodic sim ~interval (fun () ->
         o.offered <- o.offered + 1;
         sample_pending o sim;
         sending spans 0 send;
         o.active_max <- max o.active_max (Mtp.Endpoint.active_messages client);
         Sim.now sim + interval < duration));
  let stacks =
    Array.map (Netsim.Transport_intf.pack (module Mtp.Endpoint.Messaging)) [| client; server |]
  in
  { sims = [| sim |];
    run = (fun ~jobs:_ -> Sim.run ~until:duration sim);
    duration; links; switches; pool = None; obs = [| o |]; stacks;
    mtp = [| client; server |]; ledger = watch links switches; spans }

let all =
  [ { name = "fabric-raw"; jobs = 1; setup = fabric_raw };
    { name = "leafspine-dctcp"; jobs = 1; setup = leaf_spine Dctcp };
    { name = "leafspine-mtp"; jobs = 1; setup = leaf_spine Mtp };
    { name = "leafspine-par"; jobs = 2; setup = leaf_spine_par };
    { name = "failover-mtp"; jobs = 1; setup = failover } ]

let find name = List.find_opt (fun s -> s.name = name) all

(* The modelled end state: link, qdisc and switch counters, what the
   generators saw complete, and each simulator's final clock.  Event
   counts stay out, so an optimisation that elides events still
   matches. *)
let digest w =
  let b = Buffer.create 65536 in
  Array.iter
    (fun l ->
      let q = Netsim.Link.qdisc l in
      Printf.bprintf b "link %s %d %d %d %d %d %d\n" (Netsim.Link.name l)
        (Netsim.Link.sends l) (Netsim.Link.delivered_pkts l)
        (q.Netsim.Qdisc.drops ()) (q.Netsim.Qdisc.marks ())
        (Netsim.Link.fault_drops l) (Netsim.Link.bytes_sent l))
    w.links;
  Array.iter
    (fun sw ->
      Printf.bprintf b "switch %s %d %d %d %d\n" (Netsim.Switch.name sw)
        (Netsim.Switch.received sw) (Netsim.Switch.forwarded sw)
        (Netsim.Switch.dropped sw) (Netsim.Switch.consumed sw))
    w.switches;
  Array.iteri
    (fun p o ->
      Printf.bprintf b "sim %d t=%d offered=%d completed=%d fct_sum=%d payload=%d\n" p
        (Sim.now w.sims.(p)) o.offered o.completed o.fct_sum o.payload)
    w.obs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Conservation on every link, switch and the raw pool.  Raw packets a
   qdisc or switch dropped were never released (the fabric's devices
   have no pool), so they count as held. *)
let ledger_failures w =
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let held =
    sum (fun l -> (Netsim.Link.qdisc l).Netsim.Qdisc.drops ()) w.links
    + sum Netsim.Switch.dropped w.switches
  in
  Check.Ledger.failures ~held w.ledger
