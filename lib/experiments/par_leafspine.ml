(* Flagship intra-scenario parallel exhibit: one large leaf-spine
   fabric under closed-loop permutation messaging, simulated on the
   partitioned world ([Netsim.Partition] + [Runner.Epoch]) so a single
   scenario uses all cores.

   The scenario is one world regardless of [jobs]: per-leaf partitions
   exchange fabric traffic through conduits whose delay equals the
   fabric propagation delay, so lookahead = [delay] and the epoch
   machinery is exercised on every fabric RTT.  The [digest] renders
   the complete final state (per-partition workload counters in
   integers, per-link and per-switch counters in canonical order) and
   must be byte-identical for any [jobs] value — the jobs-invariance
   tests and the fuzz pairing both lean on it.

   All mutable workload state is partition-local: host (l, i) messages
   host ((l+1) mod leaves, i), completions fire at the source (leaf l),
   in that host's closed-loop driver and leaf l's slot of a
   per-partition array, and deliveries at the destination (leaf l+1),
   in that leaf's slot.  The main domain only reads drivers and slots
   after the run. *)

type transport = Dctcp | Mtp

type config = {
  leaves : int;
  spines : int;
  hosts_per_leaf : int;
  message_bytes : int;
  duration : Engine.Time.t;
  transport : transport;
}

let default =
  { leaves = 4;
    spines = 4;
    hosts_per_leaf = 8;
    message_bytes = 100_000;
    duration = Engine.Time.ms 4;
    transport = Dctcp }

type output = {
  digest : string;
  goodput_gbps : float;
  p99_fct_us : float;
  messages : int;
  events : int;
}

(* Per-partition workload counters, written only by the owning
   partition's domain during the run and read on main afterwards. *)
type part_state = {
  mutable ps_rx_bytes : int; (* delivered bytes at hosts in this leaf *)
  mutable ps_fct_sum : Engine.Time.t; (* over completions at its sources *)
  mutable ps_fct_max : Engine.Time.t;
}

let msg_port = 5001

let run ?(jobs = 1) (c : config) =
  let pls =
    Netsim.Partition.leaf_spine ~leaves:c.leaves ~spines:c.spines
      ~hosts_per_leaf:c.hosts_per_leaf
      ~host_rate:(Engine.Time.gbps 10)
      ~fabric_rate:(Engine.Time.gbps 10) ~delay:(Engine.Time.us 2)
      ~uplink_qdisc:(fun () ->
        Netsim.Qdisc.ecn ~cap_pkts:128 ~mark_threshold:20 ())
      ()
  in
  let world = pls.Netsim.Partition.pls_world in
  let state =
    Array.init c.leaves (fun _ ->
        { ps_rx_bytes = 0; ps_fct_sum = 0; ps_fct_max = 0 })
  in
  let wraps =
    Array.map
      (Array.map (fun n -> Netsim.Host.create n))
      pls.Netsim.Partition.pls_hosts
  in
  (if c.transport = Mtp then
     (* Stamp every leaf->spine uplink as a pathlet (ECN-mark mode has
        no timers, so stamping is partition-local and passive). *)
     let base = c.leaves * c.hosts_per_leaf * 2 in
     for l = 0 to c.leaves - 1 do
       for s = 0 to c.spines - 1 do
         let up =
           pls.Netsim.Partition.pls_links.(base + (2 * ((l * c.spines) + s)))
         in
         Mtp.Mtp_switch.stamp
           (Netsim.Partition.sim world l)
           up
           ~path_id:((l * c.spines) + s + 1)
           ~mode:(Mtp.Mtp_switch.Ecn_mark 20)
       done
     done);
  let stacks =
    Array.map
      (Array.map (fun h ->
           match c.transport with
           | Dctcp ->
             Netsim.Transport_intf.pack
               (module Transport.Dctcp.Messaging)
               (Transport.Dctcp.attach ~snd_buf:1_000_000 h)
           | Mtp ->
             Netsim.Transport_intf.pack
               (module Mtp.Endpoint.Messaging)
               (Mtp.Endpoint.attach h)))
      wraps
  in
  (* Listeners: delivered bytes land in the destination leaf's slot. *)
  Array.iteri
    (fun l per_leaf ->
      Array.iter
        (fun stack ->
          Netsim.Transport_intf.listen stack ~port:msg_port
            ~on_message:(fun d ->
              state.(l).ps_rx_bytes <-
                state.(l).ps_rx_bytes + d.Netsim.Transport_intf.msg_size)
            ())
        per_leaf)
    stacks;
  (* Closed-loop permutation chains: (l, i) -> ((l+1) mod leaves, i).
     Every chain's send side (and so its completion callback) lives in
     leaf l's partition. *)
  let drivers =
    Array.init c.leaves (fun l ->
        let ps = state.(l) in
        Array.init c.hosts_per_leaf (fun i ->
            let dst =
              Netsim.Node.addr
                pls.Netsim.Partition.pls_hosts.((l + 1) mod c.leaves).(i)
            in
            Workload.Driver.closed_loop ~size:c.message_bytes
              (fun ~size ~on_complete ->
                Netsim.Transport_intf.send_message stacks.(l).(i) ~dst
                  ~dst_port:msg_port ~size
                  ~on_complete:(fun fct ->
                    ps.ps_fct_sum <- ps.ps_fct_sum + fct;
                    if fct > ps.ps_fct_max then ps.ps_fct_max <- fct;
                    on_complete fct)
                  ())))
  in
  Netsim.Partition.run ~jobs ~until:c.duration world;
  (* Post-run, main domain: merge and render. *)
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let msgs ds =
    Array.fold_left (fun a d -> a + Workload.Driver.completed d) 0 ds
  in
  Array.iteri
    (fun l ps ->
      line "part %d msgs=%d rx_bytes=%d fct_sum=%d fct_max=%d" l
        (msgs drivers.(l)) ps.ps_rx_bytes ps.ps_fct_sum ps.ps_fct_max)
    state;
  Array.iteri
    (fun i l ->
      let q = Netsim.Link.qdisc l in
      line "link %d %s sends=%d delivered=%d drops=%d marks=%d bytes=%d" i
        (Netsim.Link.name l) (Netsim.Link.sends l)
        (Netsim.Link.delivered_pkts l)
        (q.Netsim.Qdisc.drops ())
        (q.Netsim.Qdisc.marks ())
        (Netsim.Link.bytes_sent l))
    pls.Netsim.Partition.pls_links;
  let sw_line sw =
    line "switch %s rx=%d fwd=%d drop=%d" (Netsim.Switch.name sw)
      (Netsim.Switch.received sw)
      (Netsim.Switch.forwarded sw)
      (Netsim.Switch.dropped sw)
  in
  Array.iter sw_line pls.Netsim.Partition.pls_leaves;
  Array.iter sw_line pls.Netsim.Partition.pls_spines;
  Array.iter
    (Array.iter (fun h ->
         line "host %d unclaimed=%d" (Netsim.Host.addr h)
           (Netsim.Host.unclaimed h)))
    wraps;
  let events = ref 0 in
  for p = 0 to Netsim.Partition.nparts world - 1 do
    let s = Netsim.Partition.sim world p in
    events := !events + Engine.Sim.events_processed s;
    line "part %d end t=%d" p (Engine.Sim.now s)
  done;
  let total_bytes =
    Array.fold_left (fun a ps -> a + ps.ps_rx_bytes) 0 state
  in
  let messages = Array.fold_left (fun a ds -> a + msgs ds) 0 drivers in
  let fcts =
    Workload.Driver.pooled_fcts
      (List.concat_map Array.to_list (Array.to_list drivers))
  in
  { digest = Buffer.contents buf;
    goodput_gbps = float_of_int (total_bytes * 8) /. float_of_int c.duration;
    p99_fct_us =
      (if Stats.Summary.count fcts = 0 then nan
       else Stats.Summary.percentile fcts 99.0);
    messages;
    events = !events }

let result ?(jobs = 1) ?(config = default) () =
  let o = run ~jobs config in
  let table =
    Stats.Table.create
      ~columns:
        [ "transport"; "jobs"; "messages"; "aggregate goodput (Gbps)";
          "p99 message FCT (us)"; "events" ]
  in
  Stats.Table.add_rowf table "%s | %d | %d | %.1f | %.0f | %d"
    (match config.transport with Dctcp -> "DCTCP" | Mtp -> "MTP")
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
