(* Guardrail bench: engine event/timer costs, pooled packet
   forwarding, the fabric-scale sweep, the MTP sender's per-ack cost
   against its backlog, a TCP stream's per-segment cost, and the
   multicore runner's determinism, scenario cost and speedup.

   Event dispatch is compared against the pre-refactor growth-seed
   baseline; a timer re-arm, a pooled packet forward and dispatch at
   depth must allocate nothing.  The scale sweep drives a raw-packet
   permutation workload through 64 -> 4096 host fabrics and checks
   that minor words/event stay flat; the mtp section checks the same
   of minor words per acked packet as one sender's backlog grows from
   1 to 128 messages, bounds the growth of its ns per acked packet,
   bounds its words per acked packet while a failed path's pathlet is
   suspect, and bounds its words per 1-packet message (beside TCP's
   connection per message, recorded as the reference); the tcp section
   checks that a warm DCTCP stream allocates (next to) nothing per
   delivered segment; the parallel section runs
   a fixed sweep and one partitioned scenario at several widths.
   Results go to stdout and, every section in one pass,
   _build/BENCH_engine.json (with the host's core count), which
   `make bench-record` commits.

   `--guardrail` additionally enforces the bars (non-zero exit on
   regression) — wired into `make check` and CI. *)

(* Pre-refactor (closure-heap engine) words per event, measured with
   the identical driver below on the growth seed. *)
let baseline_words_per_event = 18.00

(* Timed passes per workload.  The workloads a bar compares run
   interleaved (a, b, a, b, ...), so load that comes and goes on the
   machine lands on every side alike; one side timed after the other
   would read the load of one moment against that of another.  Every
   reported value is a median over the passes. *)
let passes = 11

(* The median and the quartiles of [xs]. *)
type spread = { q1 : float; med : float; q3 : float }

let spread xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  { q1 = a.(n / 4); med = a.(n / 2); q3 = a.(3 * n / 4) }

let median xs = (spread xs).med

(* Warm every pass once (fixes array sizes), then [passes] rounds that
   run each pass in turn.  Returns, per pass, its result in every
   round. *)
let interleave fs =
  Array.iter (fun f -> ignore (f ())) fs;
  let rounds = List.init passes (fun _ -> Array.map (fun f -> f ()) fs) in
  Array.mapi (fun i _ -> List.map (fun r -> r.(i)) rounds) fs

(* simlint: allow D002 — host time is what the benchmark measures *)
let clock () = Unix.gettimeofday ()

(* One timed pass of [f], which usually returns its op count:
   (seconds, minor words, what [f] returned). *)
let timed f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = clock () in
  let ops = f () in
  let t1 = clock () in
  (t1 -. t0, Gc.minor_words () -. w0, ops)

let rates runs = List.map (fun (s, _, n) -> float_of_int n /. s) runs

(* (minor words / op, ops / second) of the median passes. *)
let per_op runs =
  (median (List.map (fun (_, w, n) -> w /. float_of_int n) runs),
   median (rates runs))

(* The median over rounds of rate [a] over rate [b]: the two passes of a
   round ran moments apart, so their ratio cancels the machine's speed
   of that moment, which two medians taken from different rounds
   would not. *)
let paired a b = median (List.map2 ( /. ) a b)

(* A chain of self-scheduling events: the cost of one [Sim.after] plus
   one dispatch (the app closure itself accounts for a few words). *)
let datapath_events () =
  let n = 200_000 in
  timed (fun () ->
      let sim = Engine.Sim.create () in
      let rec tick k =
        if k > 0 then Engine.Sim.after sim 10 (fun () -> tick (k - 1))
      in
      tick n;
      Engine.Sim.run sim;
      n)

(* One timer object re-armed for every firing: the reusable-timer fast
   path (no per-occurrence closure). *)
let datapath_timer () =
  let n = 200_000 in
  timed (fun () ->
      let sim = Engine.Sim.create () in
      let count = ref 0 in
      let tm_cell = ref None in
      let tm =
        Engine.Sim.timer sim (fun () ->
            match !tm_cell with
            | Some tm ->
              if !count < n then begin
                incr count;
                Engine.Sim.arm_after tm 10
              end
            | None -> ())
      in
      tm_cell := Some tm;
      Engine.Sim.arm_after tm 10;
      Engine.Sim.run sim;
      !count)

(* The engine at a realistic depth: [deep_timers] pending timers
   (fabric-raw peaks near 7 000 pending events), each re-armed at a
   random offset when it fires, so every dispatch pops from and pushes
   into a heap of that size.  The offsets come from a table drawn at
   setup, since [Rng] boxes its int64 state; only the run is timed. *)
let deep_timers = 8_192
let deep_events = 400_000
let deep_offsets = 65_536 (* a power of two: the table index is masked *)
let deep_max_offset = 16_384

let datapath_deep () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 7 in
  let offsets =
    Array.init deep_offsets (fun _ -> 1 + Engine.Rng.int rng deep_max_offset)
  in
  let next = ref 0 in
  let offset () =
    next := (!next + 1) land (deep_offsets - 1);
    offsets.(!next)
  in
  let timers = Array.make deep_timers (Engine.Sim.timer sim ignore) in
  Array.iteri
    (fun i _ ->
      timers.(i) <-
        Engine.Sim.timer sim (fun () ->
            Engine.Sim.arm_after timers.(i) (offset ())))
    timers;
  Array.iter (fun tm -> Engine.Sim.arm_after tm (offset ())) timers;
  (* Mean offset over timer count: the time by which about
     [deep_events] timers have fired. *)
  let horizon = deep_events * (deep_max_offset / 2) / deep_timers in
  timed (fun () ->
      Engine.Sim.run ~until:horizon sim;
      Engine.Sim.events_processed sim)

(* Steady-state forwarding over a pooled link: one packet on the wire
   at a time (120 ns serialization at 100G, 1 µs propagation), recycled
   on delivery: one source event, one completion and one delivery per
   packet.  The link is built off the clock, as in [datapath_deep], so
   the words per packet are the forwarding path's alone (bar 0.00). *)
let datapath_packets () =
  let n = 100_000 in
  let sim = Engine.Sim.create () in
  let pool = Netsim.Packet.pool sim in
  let link =
    Netsim.Link.create pool ~name:"wire" ~rate:(Engine.Time.gbps 100)
      ~delay:(Engine.Time.us 1) ()
  in
  let delivered = ref 0 in
  Netsim.Link.set_dst link (fun pkt ->
      incr delivered;
      Netsim.Packet.release pool pkt);
  let gap = Engine.Time.tx_time ~bytes:1500 ~rate:(Engine.Time.gbps 100) in
  let sent = ref 0 in
  Engine.Sim.periodic sim ~interval:gap (fun () ->
      Netsim.Link.send link
        (Netsim.Packet.recycle pool ~src:0 ~dst:1 ~size:1500 ());
      incr sent;
      !sent < n);
  timed (fun () ->
      Engine.Sim.run sim;
      !delivered)

(* ------------------------------ Scale ------------------------------ *)

(* Fabric-scale sweep: each point builds an interval-routed fabric
   (two-tier Clos, k=16 fat-tree, three-tier Clos), then drives a fixed
   raw-packet permutation workload through pooled packets: 16 spread
   sources send to hosts half a fabric away at half their line rate,
   cycling flow_hash so every ECMP table is exercised.  Reported per
   point: minor words/event, minor words per delivered packet (gated
   below [packet_words_bar]), packets/s, events/s.

   Two more measurements feed the guardrail:
   - a pure routing-lookup loop (ports_for + ecmp_port on a warmed
     4096-host edge table) that must allocate nothing at all, and
   - a switch-ingress loop (Switch.receive with no taps or hooks,
     forwarding on a real ECMP verdict) that must allocate nothing
     either. *)

let host_rate = Engine.Time.gbps 10
let fabric_rate = Engine.Time.gbps 40
let delay = Engine.Time.us 2
let sources = 16
let pkts_per_source = 3_000
let lookup_calls = 2_000_000
let ingress_calls = 2_000_000

(* A point names its fabric once: [fabric] builds it on a fresh
   single-sim topology, and everything else (host count, lookup table)
   is read off the built world. *)
type point_spec = {
  label : string;
  fabric : Netsim.Topology.t -> Netsim.Topology.fat_tree;
}

let clos ~pods ~leaves ~spines ~supers ~hpl topo =
  Netsim.Topology.clos topo ~pods ~leaves ~spines ~supers ~hosts_per_leaf:hpl
    ~host_rate ~fabric_rate ~delay ()

let fat_tree ~k topo =
  Netsim.Topology.fat_tree topo ~k ~host_rate ~fabric_rate ~delay ()

type world = { sim : Engine.Sim.t; hosts : Netsim.Node.t array }

let build spec =
  let sim = Engine.Sim.create () in
  let ft = spec.fabric (Netsim.Topology.create sim) in
  { sim; hosts = ft.Netsim.Topology.ft_hosts }

(* Every spine keeps 8 core uplinks: 8 planes of 8 cores. *)
let largest =
  { label = "clos-8x16x32";
    fabric = clos ~pods:8 ~leaves:16 ~spines:8 ~supers:64 ~hpl:32 }

let points =
  [ { label = "ls-8x8";
      fabric = clos ~pods:1 ~leaves:8 ~spines:4 ~supers:0 ~hpl:8 };
    { label = "ls-16x16";
      fabric = clos ~pods:1 ~leaves:16 ~spines:8 ~supers:0 ~hpl:16 };
    { label = "fat-tree-k16"; fabric = fat_tree ~k:16 };
    largest ]

(* One workload pass: every source streams [pkts_per_source] packets
   to its antipodal host at half line rate, with a fresh flow_hash per
   packet, through [pool] to the sinks [point_pass] installed.  Steady
   state allocates nothing: packets recycle through the pool and
   timers re-arm in place; a pass allocates only its 16 sources. *)
let workload w pool =
  let nhosts = Array.length w.hosts in
  let gap =
    2 * Engine.Time.tx_time ~bytes:1500 ~rate:host_rate
  in
  let hash = ref 0 in
  for s = 0 to sources - 1 do
    let src_idx = s * nhosts / sources in
    let dst_idx = (src_idx + (nhosts / 2) + 1) mod nhosts in
    let src = w.hosts.(src_idx) in
    let dst_addr = Netsim.Node.addr w.hosts.(dst_idx) in
    let src_addr = Netsim.Node.addr src in
    let link = Netsim.Node.uplink src in
    let sent = ref 0 in
    Engine.Sim.periodic w.sim ~interval:gap (fun () ->
        hash := !hash + 1;
        let p =
          Netsim.Packet.recycle pool ~src:src_addr ~dst:dst_addr
            ~size:1500 ()
        in
        p.Netsim.Packet.flow_hash <- !hash * 0x9E3779B1 land 0xFFFFFF;
        Netsim.Link.send link p;
        incr sent;
        !sent < pkts_per_source)
  done;
  Engine.Sim.run w.sim

type point_out = {
  p_label : string;
  p_hosts : int;
  p_words_per_event : float;
  p_words_per_packet : float;
  p_pkt_rate : float;
  p_ev_rate : float;
}

(* Build the world's packet pool and its counting sinks once; each
   call of the returned pass runs the workload on it again (the first,
   warming call fills the pool, refreshes route live sets and sizes
   arrays), so only the fabric is on the clock:
   (seconds, minor words, events, delivered). *)
let point_pass w =
  let pool = Netsim.Packet.pool w.sim in
  let delivered = ref 0 in
  Array.iter
    (fun h ->
      Netsim.Node.set_handler h (fun pkt ->
          incr delivered;
          Netsim.Packet.release pool pkt))
    w.hosts;
  fun () ->
    let e0 = Engine.Sim.events_processed w.sim in
    let d0 = !delivered in
    let secs, words, n =
      timed (fun () ->
          workload w pool;
          !delivered - d0)
    in
    (secs, words, Engine.Sim.events_processed w.sim - e0, n)

let summarize spec w runs =
  let med f = median (List.map f runs) in
  let per n x = x /. float_of_int (max 1 n) in
  { p_label = spec.label;
    p_hosts = Array.length w.hosts;
    p_words_per_event = med (fun (_, w, e, _) -> per e w);
    p_words_per_packet = med (fun (_, w, _, d) -> per d w);
    p_pkt_rate = med (fun (s, _, _, d) -> float_of_int d /. s);
    p_ev_rate = med (fun (s, _, e, _) -> float_of_int e /. s) }

(* Minor words and calls/s of [calls] runs of [f i]; the loops below
   must allocate nothing at all. *)
let zero_alloc_loop calls f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = clock () in
  for i = 0 to calls - 1 do
    f i
  done;
  let t1 = clock () in
  let words = Gc.minor_words () -. w0 in
  (words, float_of_int calls /. (t1 -. t0))

(* Pure lookup cost on the biggest table: a warmed edge table of
   the 4096-host fabric, 2M ports_for + ecmp_port calls over cycling
   (dst, flow_hash) — a bounds-checked array index with no hashing and
   no option or action block. *)
let run_lookup () =
  let sim = Engine.Sim.create () in
  let ft = largest.fabric (Netsim.Topology.create sim) in
  let routes = ft.Netsim.Topology.ft_edge_routes.(0) in
  let nhosts = Array.length ft.Netsim.Topology.ft_hosts in
  let pool = Netsim.Packet.pool sim in
  let probe = Netsim.Packet.recycle pool ~src:0 ~dst:0 ~size:1500 () in
  (* Warm every live set once so lazy refreshes are off the clock. *)
  for d = 0 to nhosts - 1 do
    ignore (Netsim.Routing.ports_for routes d)
  done;
  let sink = ref 0 in
  zero_alloc_loop lookup_calls (fun i ->
      probe.Netsim.Packet.dst <- i mod nhosts;
      probe.Netsim.Packet.flow_hash <- i;
      sink := !sink + Netsim.Routing.ecmp_port routes probe)

(* The switch ingress every forwarded packet passes: counters, the tap
   and hook walks (both empty here), a [Routing.ecmp] verdict over four
   ports (cycling flow_hash spreads the probe over all of them) and
   [Link.send] on the chosen egress.  The egress queues hold nothing
   ([cap_pkts:0]), so every send is a tail drop and the simulator never
   needs to run: each call takes its probe from the switch's pool and
   the drop releases it there, so the next call reuses the record.  A
   verdict boxed per packet would show here as 2 words per call. *)
let ingress_ports = 4

let run_ingress () =
  let pool = Netsim.Packet.pool (Engine.Sim.create ()) in
  let sw = Netsim.Switch.create pool ~name:"sw" in
  let routes = Netsim.Routing.create () in
  for i = 0 to ingress_ports - 1 do
    let egress =
      Netsim.Link.create pool ~name:(Printf.sprintf "egress%d" i)
        ~rate:fabric_rate ~delay ~qdisc:(Netsim.Qdisc.fifo ~cap_pkts:0 ()) ()
    in
    Netsim.Routing.add routes 1 (Netsim.Switch.add_port sw egress)
  done;
  Netsim.Switch.set_forward sw (Netsim.Routing.ecmp routes);
  let probe flow_hash =
    Netsim.Packet.take pool ~entity:0 ~prio:0 ~flow_hash
      ~payload:Netsim.Packet.Raw ~src:0 ~dst:1 ~size:1500
  in
  (* Warm the live port set so its lazy refresh is off the clock, and
     park the record every call then reuses. *)
  Netsim.Switch.receive sw (probe 0);
  let words, rate =
    zero_alloc_loop ingress_calls (fun i -> Netsim.Switch.receive sw (probe i))
  in
  assert (Netsim.Switch.forwarded sw = ingress_calls + 1);
  assert (fst (Netsim.Packet.pool_stats pool) = 1);
  (words, rate)

type scale = {
  pts : point_out list;
  lookup_words : float;
  lookup_rate : float;
  ingress_words : float;
  ingress_rate : float;
}

let collect_scale () =
  let pts =
    List.map
      (fun spec ->
        let w = build spec in
        summarize spec w (interleave [| point_pass w |]).(0))
      points
  in
  let lookup_words, lookup_rate = run_lookup () in
  let ingress_words, ingress_rate = run_ingress () in
  { pts; lookup_words; lookup_rate; ingress_words; ingress_rate }

let flatness s =
  let wpe label =
    match List.find_opt (fun p -> p.p_label = label) s.pts with
    | Some p -> p.p_words_per_event
    | None -> nan
  in
  (wpe "ls-8x8", wpe "clos-8x16x32")

let flatness_bar = 1.15

(* A pass allocates only its 16 sources' timers, closures and counters
   over 48 000 packets, about 0.01 words per delivered packet; one box
   per packet anywhere on the path would read 2 or more. *)
let packet_words_bar = 0.05

(* Sub-quarter-word/event is allocation-free territory: when both ends
   of the sweep sit under it, the ratio is noise on noise and the
   sweep is flat by the absolute criterion. *)
let flat_floor = 0.25

(* ------------------------------- MTP ------------------------------- *)

(* The MTP sender's per-ack cost against its backlog: one host keeps
   [backlog] equal messages outstanding to a peer over a 10G link whose
   MTP-aware qdisc stamps ECN feedback (a completion starts the next
   message), until [mtp_messages] have completed.  Every ack runs the
   send pump, so this is where per-message scheduling cost shows.
   Reported per point: minor words and ns per acked packet, only
   [Sim.run] on the clock.  Words must stay flat in the backlog (same
   bar and floor as the scale sweep), and at a backlog of 1 must stay
   within [mtp_words_bar] of the recorded [mtp_recorded_words_1]:
   flatness alone would pass a regression that costs every ack the
   same.  ns at a backlog of 128 must stay within [mtp_ns_ratio_bar]
   of ns at 1 (the median of per-round ratios, see [paired]): the
   pump's round ends once every ready lane is refused, and a pump that
   walked the whole backlog on every ack would show as
   a steep ratio.  A ratio within one run depends far less on the
   machine than absolute ns, which are recorded but not gated. *)

(* Minor words per acked packet at a backlog of 1 when last recorded
   (allocation is deterministic, so the same on any machine). *)
let mtp_recorded_words_1 = 1.91
let mtp_words_bar = 1.15
let mtp_ns_ratio_bar = 2.0

let mtp_backlogs = [ 1; 16; 128 ]
let mtp_pkts_per_msg = 16
let mtp_messages = 2_048

(* [m_ns_runs] is ns per acked packet in each round, for [paired]. *)
type mtp_point = {
  m_backlog : int; m_words : float; m_ns : float; m_ns_runs : float list }

let mtp_pass ~backlog =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.host topo "a" and b = Netsim.Topology.host topo "b" in
  let ab, _ =
    Netsim.Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2)
      ~ab_qdisc:(Netsim.Qdisc.fifo ~cap_pkts:256 ())
      ()
  in
  Mtp.Mtp_switch.stamp sim ab ~path_id:3 ~mode:(Mtp.Mtp_switch.Ecn_mark 20);
  let ea = Mtp.Endpoint.attach (Netsim.Host.create a) in
  let eb = Mtp.Endpoint.attach (Netsim.Host.create b) in
  Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
  let dst = Netsim.Node.addr b in
  let size = mtp_pkts_per_msg * 1440 in
  let started = ref 0 in
  let rec start () =
    if !started < mtp_messages then begin
      incr started;
      ignore
        (Mtp.Endpoint.send ea ~dst ~dst_port:80
           ~on_complete:(fun _ -> start ())
           ~size ())
    end
  in
  for _ = 1 to backlog do
    start ()
  done;
  let secs, words, () = timed (fun () -> Engine.Sim.run sim) in
  assert (Mtp.Endpoint.completed ea = mtp_messages);
  let acked = float_of_int (mtp_messages * mtp_pkts_per_msg) in
  (secs, words /. acked, secs *. 1e9 /. acked)

(* One pass per backlog in each round (1, 16, 128, 1, ...); each point
   is the median. *)
let collect_mtp () =
  let runs =
    interleave
      (Array.of_list
         (List.map (fun backlog () -> mtp_pass ~backlog) mtp_backlogs))
  in
  List.mapi
    (fun i backlog ->
      { m_backlog = backlog;
        m_words = median (List.map (fun (_, w, _) -> w) runs.(i));
        m_ns = median (List.map (fun (_, _, ns) -> ns) runs.(i));
        m_ns_runs = List.map (fun (_, _, ns) -> ns) runs.(i) })
    mtp_backlogs

let mtp_point pts n = List.find (fun p -> p.m_backlog = n) pts

let mtp_flatness pts = ((mtp_point pts 1).m_words, (mtp_point pts 128).m_words)

let mtp_ns_ratio pts =
  paired (mtp_point pts 128).m_ns_runs (mtp_point pts 1).m_ns_runs

(* The failover point: the two-path fabric and open-loop traffic of
   [bench/suite]'s failover-mtp (one 100 KB message per 10 us, 100G
   paths, an exclusion-aware ingress, a sender without exclusion
   lists).  Path A goes down at 1 ms and routing withdraws it 0.5 ms
   later; by 2 ms timeouts have turned its pathlet suspect, and every
   send then passes the suspect views (steering skips it, probing
   checks whether it is due).  Reported: minor words per acked packet
   from 2 to 4 ms, with path A still down and its pathlet still
   suspect, gated like the backlog-1 point against
   [mtp_recorded_failover_words] (allocation is deterministic). *)
let mtp_recorded_failover_words = 0.40

let mtp_failover () =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let g = Engine.Time.gbps 100 and delay = Engine.Time.us 1 in
  let fifo () = Netsim.Qdisc.fifo ~cap_pkts:128 () in
  let tp =
    Netsim.Topology.two_path topo ~rate_a:g ~rate_b:g ~delay_a:delay
      ~delay_b:delay ~edge_rate:(Engine.Time.gbps 200) ~qdisc_a:(fifo ())
      ~qdisc_b:(fifo ()) ()
  in
  let link_a = tp.Netsim.Topology.tp_link_a in
  let routes = tp.Netsim.Topology.tp_routes in
  let fault = Netsim.Fault.plan sim in
  Netsim.Fault.link_down fault ~at:(Engine.Time.ms 1) link_a;
  Netsim.Fault.reroute fault routes ~port:tp.Netsim.Topology.tp_port_a
    ~detect:(Engine.Time.us 500) link_a;
  Mtp.Mtp_switch.stamp sim link_a ~path_id:1 ~mode:(Mtp.Mtp_switch.Ecn_mark 20);
  Mtp.Mtp_switch.stamp sim tp.Netsim.Topology.tp_link_b ~path_id:2
    ~mode:(Mtp.Mtp_switch.Ecn_mark 20);
  Netsim.Switch.set_forward tp.Netsim.Topology.tp_ingress
    (Mtp.Mtp_switch.exclusion_aware
       ~port_paths:
         [ (tp.Netsim.Topology.tp_port_a, 1); (tp.Netsim.Topology.tp_port_b, 2) ]
       routes);
  let ea =
    Mtp.Endpoint.attach ~exclusion:false
      (Netsim.Host.create tp.Netsim.Topology.tp_src)
  in
  let eb = Mtp.Endpoint.attach (Netsim.Host.create tp.Netsim.Topology.tp_dst) in
  Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
  let dst = Netsim.Node.addr tp.Netsim.Topology.tp_dst in
  let sent = ref 0 in
  Engine.Sim.periodic sim ~interval:(Engine.Time.us 10) (fun () ->
      incr sent;
      ignore
        (Mtp.Endpoint.send ea ~dst ~dst_port:80
           ~src_port:(30_000 + (!sent mod 1_000)) ~size:100_000 ());
      true);
  let table = Mtp.Endpoint.pathlets ea in
  let path_a = { Mtp.Wire.path_id = 1; path_tc = 0 } in
  let suspect () = Mtp.Pathlet.suspect table path_a in
  Engine.Sim.run ~until:(Engine.Time.ms 2) sim;
  if not (suspect ()) then failwith "mtp failover: path A's pathlet not suspect";
  let acks = Mtp.Endpoint.acks_sent eb in
  let _, words, () =
    timed (fun () -> Engine.Sim.run ~until:(Engine.Time.ms 4) sim)
  in
  if not (suspect ()) then failwith "mtp failover: path A's pathlet revived";
  words /. float_of_int (Mtp.Endpoint.acks_sent eb - acks)

(* The per-message cost, which the points above hide by dividing over
   16-packet messages: a stamped 10G host pair (the backlog bench's)
   carries [msg_messages] 1-packet messages, one outstanding (a
   completion sends the next), through the packed transport interface.
   Reported: minor words and events per message over [Sim.run]
   (deterministic, so one pass).  MTP's words are gated like the
   backlog-1 point against [mtp_recorded_msg_words].  TCP with one
   connection per message is recorded beside it as the reference and
   not gated: its handshake, connection record, timers and FIN per
   message are fig 3's point. *)
let msg_messages = 4_096
let mtp_recorded_msg_words = 22.24

type msg_point = { mp_words : float; mp_events : float }

let per_message attach =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.host topo "a" and b = Netsim.Topology.host topo "b" in
  let ab, _ =
    Netsim.Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2)
      ~ab_qdisc:(Netsim.Qdisc.fifo ~cap_pkts:256 ())
      ()
  in
  Mtp.Mtp_switch.stamp sim ab ~path_id:3 ~mode:(Mtp.Mtp_switch.Ecn_mark 20);
  let client = attach (Netsim.Host.create a) in
  let server = attach (Netsim.Host.create b) in
  Netsim.Transport_intf.listen server ~port:80 ();
  let dst = Netsim.Node.addr b in
  let started = ref 0 and completed = ref 0 in
  let rec start () =
    if !started < msg_messages then begin
      incr started;
      Netsim.Transport_intf.send_message client ~dst ~dst_port:80
        ~on_complete:(fun _ ->
          incr completed;
          start ())
        ~size:1440 ()
    end
  in
  start ();
  let _, words, () = timed (fun () -> Engine.Sim.run sim) in
  assert (!completed = msg_messages);
  let n = float_of_int msg_messages in
  { mp_words = words /. n;
    mp_events = float_of_int (Engine.Sim.events_processed sim) /. n }

let mtp_per_message () =
  per_message (fun host ->
      Netsim.Transport_intf.pack
        (module Mtp.Endpoint.Messaging)
        (Mtp.Endpoint.attach host))

let tcp_per_message () =
  per_message (fun host ->
      Netsim.Transport_intf.pack
        (module Transport.Tcp.Messaging)
        (Transport.Tcp.attach host))

(* ------------------------------- TCP ------------------------------- *)

(* A backlogged DCTCP stream over a lossless 10G host pair, warmed up
   for 2 ms off the clock: minor words per delivered segment (data and
   acks, both links) from 2 to 10 ms.  The TCP endpoint's per-segment
   work (lookup, ack clocking, window and RTT updates, reassembly)
   must allocate nothing in steady state; the bar is the scale sweep's
   per-packet bar. *)
let tcp_words_bar = 0.05

let tcp_stream () =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.host topo "a" and b = Netsim.Topology.host topo "b" in
  let ab, ba =
    Netsim.Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ()
  in
  let client = Transport.Dctcp.attach ~snd_buf:64_000 (Netsim.Host.create a) in
  let server = Transport.Dctcp.attach (Netsim.Host.create b) in
  Transport.Dctcp.Messaging.listen server ~port:80 ();
  ignore
    (Transport.Tcp.stream client ~dst:(Netsim.Node.addr b) ~dst_port:80 ());
  Engine.Sim.run ~until:(Engine.Time.ms 2) sim;
  let delivered () =
    Netsim.Link.delivered_pkts ab + Netsim.Link.delivered_pkts ba
  in
  let segs0 = delivered () in
  timed (fun () ->
      Engine.Sim.run ~until:(Engine.Time.ms 10) sim;
      delivered () - segs0)

(* ----------------------------- Parallel ---------------------------- *)

(* The multicore runner on fixed work: the sweep is eight fig5 flip
   points at 2 ms (the embarrassingly parallel grid the evaluation is
   made of) at jobs 1, 2, 4 and 8; the scenario is one partitioned
   leaf-spine simulation (Ext_leafspine on Partition and Runner.Epoch)
   at jobs 1 and 2.  Sweep rows and scenario digests must be identical
   at every width and in every pass.  The jobs=1 scenario runs wholly
   on the calling domain, so its minor words per event are exact and
   gated on any host.  A speedup is the median over rounds of the
   serial pass's time over the width's, with its quartiles.  On a
   multi-core host the sweep at [judged_jobs] must not be slower than
   serial beyond [par_tolerance], nor, on a host with [recorded_cores]
   cores, slower than [recorded_speedup_2] beyond it; one core skips
   both, since extra domains there only add GC coordination. *)

let sweep_flips = [ 64; 96; 128; 192; 256; 384; 768; 1536 ]
let par_duration = Engine.Time.ms 2
let judged_jobs = 2
let par_tolerance = 1.10

(* Recorded values: the jobs=1 scenario's minor words per event
   (re-record when the partition exchange or the per-event cost
   changes on purpose), and the sweep's speedup at [judged_jobs] with
   the core count of the host it was taken on. *)
let scenario_recorded_words = 0.54
let scenario_words_bar = 1.15
let recorded_cores = 2
let recorded_speedup_2 = 1.65

let scenario_config =
  { Experiments.Ext_leafspine.default with
    Experiments.Ext_leafspine.duration = par_duration }

type width = { w_jobs : int; w_wall : float; w_speedup : spread }

type par = {
  sweep : width list;
  rows_identical : bool;
  scenario : width list;
  digests_identical : bool;
  sc_words : float;
}

(* Every pass of [f ~jobs] for each of [widths], interleaved; whether
   all returned the same [key]; and each width's median wall time and
   speedup over the first width. *)
let scaling widths f key =
  let runs =
    interleave (Array.of_list (List.map (fun jobs () -> timed (f ~jobs)) widths))
  in
  let secs i = List.map (fun (s, _, _) -> s) runs.(i) in
  let k0 = key (List.hd runs.(0)) in
  ( runs,
    Array.for_all (List.for_all (fun r -> key r = k0)) runs,
    List.mapi
      (fun i jobs ->
        { w_jobs = jobs; w_wall = median (secs i);
          w_speedup = spread (List.map2 ( /. ) (secs 0) (secs i)) })
      widths )

let collect_par () =
  let _, rows_identical, sweep =
    scaling [ 1; 2; 4; 8 ]
      (fun ~jobs () ->
        Experiments.Exp_common.collect ~jobs (fun emit ->
            Experiments.Sweeps.fig5_sweep_jobs ~flips_us:sweep_flips
              ~duration:par_duration ~emit ()))
      (fun (_, _, rows) -> rows)
  in
  let sc, digests_identical, scenario =
    scaling [ 1; 2 ]
      (fun ~jobs () -> Experiments.Ext_leafspine.run ~jobs scenario_config)
      (fun (_, _, o) -> o.Experiments.Ext_leafspine.digest)
  in
  let per_event (_, w, o) =
    w /. float_of_int (max 1 o.Experiments.Ext_leafspine.events)
  in
  { sweep; rows_identical; scenario; digests_identical;
    sc_words = median (List.map per_event sc.(0)) }

let judged p = (List.find (fun w -> w.w_jobs = judged_jobs) p.sweep).w_speedup

let cores = Domain.recommended_domain_count ()

(* Why a wall-clock bar of the parallel section went unchecked. *)
let par_notes =
  (if cores = 1 then
     [ "single core: wall-clock guardrails skipped (extra domains on one \
        core cost GC coordination; only determinism is checked)" ]
   else [])
  @
  if cores <> recorded_cores then
    [ Printf.sprintf
        "speedup baseline recorded on %d core(s), this host has %d: \
         speedup regression check skipped"
        recorded_cores cores ]
  else []

(* ------------------------------ Report ----------------------------- *)

type report = {
  ev_words : float;
  ev_rate : float;
  tm_words : float;
  tm_rate : float;
  pk_words : float;
  pk_rate : float;
  dh_words : float;
  dh_rate : float;
  scale : scale;
  mtp : mtp_point list;
  mtp_failover_words : float;
  mtp_msg : msg_point;
  tcp_msg : msg_point;
  tcp_words : float;
  tcp_rate : float;
  par : par;
}

let collect () =
  let engine =
    interleave
      [| datapath_events; datapath_timer; datapath_packets; datapath_deep |]
  in
  let ev_words, ev_rate = per_op engine.(0) in
  let tm_words, tm_rate = per_op engine.(1) in
  let pk_words, pk_rate = per_op engine.(2) in
  let dh_words, dh_rate = per_op engine.(3) in
  let scale = collect_scale () in
  let mtp = collect_mtp () in
  let mtp_failover_words = mtp_failover () in
  let mtp_msg = mtp_per_message () and tcp_msg = tcp_per_message () in
  let tcp_words, tcp_rate = per_op (interleave [| tcp_stream |]).(0) in
  let par = collect_par () in
  { ev_words; ev_rate; tm_words; tm_rate; pk_words; pk_rate; dh_words;
    dh_rate; scale; mtp; mtp_failover_words; mtp_msg; tcp_msg; tcp_words;
    tcp_rate; par }

let print_report r =
  Printf.printf "== datapath guardrails ==\n";
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (baseline %.2f)\n"
    "sim event (schedule+dispatch)" r.ev_words r.ev_rate
    baseline_words_per_event;
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (bar 0.00)\n" "timer re-arm"
    r.tm_words r.tm_rate;
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (bar 0.00)\n"
    "pooled packet forward" r.pk_words r.pk_rate;
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (bar 0.00)\n"
    (Printf.sprintf "deep heap (%d timers)" deep_timers)
    r.dh_words r.dh_rate;
  let s = r.scale in
  Printf.printf "\n== scale sweep (words stay flat 64 -> 4096 hosts) ==\n";
  List.iter
    (fun p ->
      Printf.printf
        "%-14s %5d hosts %8.3f words/event %8.3f words/pkt %10.0f pkt/s %11.0f ev/s\n"
        p.p_label p.p_hosts p.p_words_per_event p.p_words_per_packet
        p.p_pkt_rate p.p_ev_rate)
    s.pts;
  let w64, w4096 = flatness s in
  Printf.printf "%-14s %.3f -> %.3f words/event (bar %.2fx, floor %.2f)\n"
    "flatness" w64 w4096 flatness_bar flat_floor;
  Printf.printf "%-14s below %.2f words/pkt at every point\n" "packet bar"
    packet_words_bar;
  Printf.printf
    "%-14s %.1f minor words over %d lookups (%.0f lookups/s)\n" "lookup"
    s.lookup_words lookup_calls s.lookup_rate;
  Printf.printf
    "%-14s %.1f minor words over %d switch receives (%.0f receives/s)\n"
    "ingress" s.ingress_words ingress_calls s.ingress_rate;
  Printf.printf "\n== mtp sender (words stay flat in the backlog) ==\n";
  List.iter
    (fun p ->
      Printf.printf "backlog %-6d %8.2f words/acked pkt %8.0f ns/acked pkt\n"
        p.m_backlog p.m_words p.m_ns)
    r.mtp;
  let m1, m128 = mtp_flatness r.mtp in
  Printf.printf "%-14s %.2f -> %.2f words/acked pkt (bar %.2fx, floor %.2f)\n"
    "flatness" m1 m128 flatness_bar flat_floor;
  Printf.printf "%-14s %.2f words/acked pkt at 1 vs recorded %.2f (bar %.2fx)\n"
    "absolute" m1 mtp_recorded_words_1 mtp_words_bar;
  Printf.printf "%-14s %.2fx ns/acked pkt at 128 vs 1 (bar %.2fx)\n" "ns ratio"
    (mtp_ns_ratio r.mtp) mtp_ns_ratio_bar;
  Printf.printf
    "%-14s %.2f words/acked pkt, path A down and suspect, vs recorded %.2f \
     (bar %.2fx)\n"
    "failover" r.mtp_failover_words mtp_recorded_failover_words mtp_words_bar;
  Printf.printf
    "%-14s %.2f words/msg, %.2f events/msg over 1-packet messages vs \
     recorded %.2f (bar %.2fx)\n"
    "per message" r.mtp_msg.mp_words r.mtp_msg.mp_events
    mtp_recorded_msg_words mtp_words_bar;
  Printf.printf
    "%-14s %.2f words/msg, %.2f events/msg, a connection per message \
     (reference, not gated)\n"
    "tcp reference" r.tcp_msg.mp_words r.tcp_msg.mp_events;
  Printf.printf "\n== tcp endpoint (warm dctcp stream) ==\n";
  Printf.printf "%-14s %8.3f words/segment %10.0f segments/s (bar %.2f)\n"
    "dctcp stream" r.tcp_words r.tcp_rate tcp_words_bar;
  let p = r.par in
  Printf.printf "\n== parallel runner (%d core(s)) ==\n" cores;
  let widths label =
    List.iter (fun w ->
        Printf.printf "%-20s %8.3f s %6.2fx (q1 %.2f, q3 %.2f)\n"
          (Printf.sprintf "%s --jobs %d" label w.w_jobs)
          w.w_wall w.w_speedup.med w.w_speedup.q1 w.w_speedup.q3)
  in
  widths "sweep" p.sweep;
  widths "scenario" p.scenario;
  Printf.printf "%-20s %b, scenario digests identical %b\n"
    "sweep rows identical" p.rows_identical p.digests_identical;
  Printf.printf "%-20s %.4f (bar %.2f x %.2f)\n" "scenario words/event"
    p.sc_words scenario_words_bar scenario_recorded_words;
  Printf.printf "%-20s %.2fx at --jobs %d vs recorded %.2fx on %d core(s)\n"
    "sweep speedup" (judged p).med judged_jobs recorded_speedup_2
    recorded_cores;
  List.iter (Printf.printf "note: %s\n") par_notes

let write_json r =
  let oc = open_out "_build/BENCH_engine.json" in
  Printf.fprintf oc
    {|{
  "cores": %d,
  "passes": %d,
  "baseline": {
    "minor_words_per_event": %.2f
  },
  "current": {
    "minor_words_per_event": %.2f,
    "minor_words_per_timer_rearm": %.2f,
    "minor_words_per_packet": %.2f,
    "events_per_sec": %.0f,
    "packets_per_sec": %.0f,
    "deep_heap_timers": %d,
    "minor_words_per_deep_heap_event": %.2f,
    "deep_heap_events_per_sec": %.0f
  },
  "reduction": {
    "event_words_factor": %.2f
  },
  "scale": {
    "points": [|}
    cores passes baseline_words_per_event r.ev_words
    r.tm_words r.pk_words r.ev_rate r.pk_rate deep_timers r.dh_words
    r.dh_rate
    (baseline_words_per_event /. Float.max 1e-9 r.ev_words);
  let s = r.scale in
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "%s\n      { \"topo\": %S, \"hosts\": %d, \"minor_words_per_event\": %.3f, \"minor_words_per_packet\": %.3f, \"packets_per_sec\": %.0f, \"events_per_sec\": %.0f }"
        (if i = 0 then "" else ",")
        p.p_label p.p_hosts p.p_words_per_event p.p_words_per_packet
        p.p_pkt_rate p.p_ev_rate)
    s.pts;
  let w64, w4096 = flatness s in
  Printf.fprintf oc
    "\n    ],\n    \"flatness_words_per_event_64\": %.3f,\n    \"flatness_words_per_event_4096\": %.3f,\n    \"flatness_bar\": %.2f,\n    \"flatness_floor\": %.2f,\n    \"minor_words_per_packet_bar\": %.2f,\n    \"lookup_minor_words\": %.1f,\n    \"lookup_calls\": %d,\n    \"lookups_per_sec\": %.0f,\n    \"ingress_minor_words\": %.1f,\n    \"ingress_calls\": %d,\n    \"ingress_per_sec\": %.0f\n  },\n"
    w64 w4096 flatness_bar flat_floor packet_words_bar s.lookup_words
    lookup_calls
    s.lookup_rate s.ingress_words ingress_calls s.ingress_rate;
  Printf.fprintf oc "  \"mtp\": {\n    \"msg_pkts\": %d,\n    \"messages\": %d,\n    \"points\": ["
    mtp_pkts_per_msg mtp_messages;
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "%s\n      { \"backlog\": %d, \"minor_words_per_acked_pkt\": %.2f, \"ns_per_acked_pkt\": %.0f }"
        (if i = 0 then "" else ",")
        p.m_backlog p.m_words p.m_ns)
    r.mtp;
  let m1, m128 = mtp_flatness r.mtp in
  Printf.fprintf oc
    "\n    ],\n    \"flatness_words_1\": %.2f,\n    \"flatness_words_128\": %.2f,\n    \"flatness_bar\": %.2f,\n    \"flatness_floor\": %.2f,\n    \"recorded_words_1\": %.2f,\n    \"words_1_bar\": %.2f,\n    \"ns_ratio_128_to_1\": %.2f,\n    \"ns_ratio_bar\": %.2f,\n    \"failover_words\": %.2f,\n    \"recorded_failover_words\": %.2f,\n    \"per_message\": {\n      \"msg_pkts\": 1,\n      \"messages\": %d,\n      \"minor_words_per_msg\": %.2f,\n      \"events_per_msg\": %.2f,\n      \"recorded_words_per_msg\": %.2f,\n      \"tcp_conn_per_msg_minor_words_per_msg\": %.2f,\n      \"tcp_conn_per_msg_events_per_msg\": %.2f\n    }\n  },\n"
    m1 m128 flatness_bar flat_floor mtp_recorded_words_1 mtp_words_bar
    (mtp_ns_ratio r.mtp) mtp_ns_ratio_bar r.mtp_failover_words
    mtp_recorded_failover_words msg_messages r.mtp_msg.mp_words
    r.mtp_msg.mp_events mtp_recorded_msg_words r.tcp_msg.mp_words
    r.tcp_msg.mp_events;
  Printf.fprintf oc
    "  \"tcp\": {\n    \"minor_words_per_segment\": %.3f,\n    \"segments_per_sec\": %.0f,\n    \"words_bar\": %.2f\n  },\n"
    r.tcp_words r.tcp_rate tcp_words_bar;
  let p = r.par and c = scenario_config in
  let widths ws =
    String.concat ","
      (List.map
         (fun w ->
           Printf.sprintf
             "\n        { \"jobs\": %d, \"workers\": %d, \"wall_s\": %.3f, \"speedup\": %.2f, \"speedup_q1\": %.2f, \"speedup_q3\": %.2f }"
             w.w_jobs (min w.w_jobs (List.length sweep_flips)) w.w_wall
             w.w_speedup.med w.w_speedup.q1 w.w_speedup.q3)
         ws)
  in
  Printf.fprintf oc
    "  \"parallel\": {\n    \"passes\": %d,\n    \"sweep\": {\n      \"points\": %d,\n      \"duration_ms\": 2,\n      \"rows_identical\": %b,\n      \"widths\": [%s\n      ]\n    },\n    \"scenario\": {\n      \"leaves\": %d,\n      \"spines\": %d,\n      \"hosts_per_leaf\": %d,\n      \"duration_ms\": 2,\n      \"digests_identical\": %b,\n      \"widths\": [%s\n      ],\n      \"jobs1_minor_words_per_event\": %.2f,\n      \"recorded_words_per_event\": %.2f,\n      \"words_bar\": %.2f\n    },\n    \"judged_jobs\": %d,\n    \"recorded_cores\": %d,\n    \"recorded_speedup\": %.2f,\n    \"tolerance\": %.2f,\n    \"notes\": [%s]\n  }\n}\n"
    passes (List.length sweep_flips) p.rows_identical (widths p.sweep)
    c.Experiments.Ext_leafspine.leaves c.Experiments.Ext_leafspine.spines
    c.Experiments.Ext_leafspine.hosts_per_leaf p.digests_identical
    (widths p.scenario) p.sc_words scenario_recorded_words scenario_words_bar
    judged_jobs recorded_cores recorded_speedup_2 par_tolerance
    (String.concat ", " (List.map (Printf.sprintf "%S") par_notes));
  close_out oc;
  Printf.printf "wrote _build/BENCH_engine.json\n"

(* Allocation bars are stable across machines and enforced tightly;
   the wall-clock bars are ratios within one run, so they hold on any
   machine (the parallel ones on any with more than one core). *)
let guardrail r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if r.ev_words > baseline_words_per_event *. 1.10 then
    fail "event words/op %.2f exceeds baseline %.2f + 10%%" r.ev_words
      baseline_words_per_event;
  (* Re-arming one reusable timer, forwarding a pooled packet, and
     popping and re-arming at depth must allocate nothing: the bar is
     0.00 words at the two decimals reported. *)
  if r.pk_words >= 0.005 then
    fail "pooled packet forward allocates %.3f minor words per packet"
      r.pk_words;
  if r.tm_words >= 0.005 then
    fail "timer re-arm allocates %.3f minor words per re-arm" r.tm_words;
  if r.dh_words >= 0.005 then
    fail "deep-heap dispatch allocates %.3f minor words per event" r.dh_words;
  let s = r.scale in
  let w64, w4096 = flatness s in
  if w4096 > Float.max (flatness_bar *. w64) flat_floor then
    fail
      "words/event grew with scale: %.3f at 4096 hosts vs %.3f at 64 \
       (bar %.2fx, floor %.2f)"
      w4096 w64 flatness_bar flat_floor;
  List.iter
    (fun p ->
      if not (p.p_words_per_packet < packet_words_bar) then
        fail "scale point %s allocates %.3f minor words per delivered packet \
              (bar %.2f)" p.p_label p.p_words_per_packet packet_words_bar)
    s.pts;
  (* A single allocation in 2M calls would show as >= 2 words. *)
  if s.lookup_words > 1.0 then
    fail "routing lookup allocated %.1f minor words over %d calls"
      s.lookup_words lookup_calls;
  if s.ingress_words > 1.0 then
    fail "switch ingress allocated %.1f minor words over %d calls"
      s.ingress_words ingress_calls;
  let m1, m128 = mtp_flatness r.mtp in
  if not (m128 <= Float.max (flatness_bar *. m1) flat_floor) then
    fail
      "mtp words/acked packet grew with the backlog: %.2f at 128 messages \
       vs %.2f at 1 (bar %.2fx, floor %.2f)"
      m128 m1 flatness_bar flat_floor;
  if not (m1 <= mtp_words_bar *. mtp_recorded_words_1) then
    fail
      "mtp words/acked packet at a backlog of 1: %.2f exceeds the recorded \
       %.2f by more than %.2fx"
      m1 mtp_recorded_words_1 mtp_words_bar;
  if not (r.mtp_failover_words <= mtp_words_bar *. mtp_recorded_failover_words)
  then
    fail
      "mtp words/acked packet with a suspect pathlet: %.2f exceeds the \
       recorded %.2f by more than %.2fx"
      r.mtp_failover_words mtp_recorded_failover_words mtp_words_bar;
  if not (r.mtp_msg.mp_words <= mtp_words_bar *. mtp_recorded_msg_words) then
    fail
      "mtp words per 1-packet message: %.2f exceeds the recorded %.2f by \
       more than %.2fx"
      r.mtp_msg.mp_words mtp_recorded_msg_words mtp_words_bar;
  if not (r.tcp_words < tcp_words_bar) then
    fail "warm dctcp stream allocates %.3f minor words per delivered \
          segment (bar %.2f)" r.tcp_words tcp_words_bar;
  let ratio = mtp_ns_ratio r.mtp in
  if not (ratio <= mtp_ns_ratio_bar) then
    fail
      "mtp ns/acked packet at a backlog of 128 is %.2fx that at 1 (bar \
       %.2fx): the send pump's per-ack cost grows with the backlog"
      ratio mtp_ns_ratio_bar;
  let p = r.par in
  if not p.rows_identical then
    fail "parallel sweep rows differ between widths or passes";
  if not p.digests_identical then
    fail "partitioned scenario digests differ between jobs=1 and jobs=2";
  if not (p.sc_words <= scenario_words_bar *. scenario_recorded_words) then
    fail "jobs=1 scenario allocates %.2f minor words per event, above \
          %.2fx the recorded %.2f"
      p.sc_words scenario_words_bar scenario_recorded_words;
  let j = (judged p).med in
  if cores > 1 && j *. par_tolerance < 1.0 then
    fail "sweep at --jobs %d runs at %.2fx serial speed (tolerance %.2f)"
      judged_jobs j par_tolerance;
  if cores > 1 && cores = recorded_cores
     && j < recorded_speedup_2 /. par_tolerance then
    fail "sweep speedup at --jobs %d %.2fx regressed below the recorded \
          %.2fx (tolerance %.2f)"
      judged_jobs j recorded_speedup_2 par_tolerance;
  match !failures with
  | [] ->
    Printf.printf "guardrail: OK\n";
    true
  | fs ->
    List.iter (Printf.printf "guardrail FAIL: %s\n") (List.rev fs);
    false

let () =
  let r = collect () in
  print_report r;
  write_json r;
  if Array.exists (( = ) "--guardrail") Sys.argv then
    if not (guardrail r) then exit 1
