(* Engine guardrail bench: engine event/timer costs, pooled packet
   forwarding, the fabric-scale sweep, and the MTP sender's per-ack
   cost against its backlog.

   Three guardrail workloads (event dispatch, timer re-arm, pooled
   packet forward) are compared against the pre-refactor growth-seed
   baselines.  The scale sweep drives a raw-packet permutation workload through 64 ->
   4096 host fabrics and checks that minor words/event stay flat; the
   mtp section checks the same of minor words per acked packet as one
   sender's backlog grows from 1 to 128 messages, and bounds the growth
   of its ns per acked packet.  Results go to stdout and, every section
   in one pass, BENCH_engine.json (with the host's core count).

   `--guardrail` additionally enforces the bars (non-zero exit on
   regression) — wired into `make check` and CI next to the parallel
   scaling bench. *)

(* Pre-refactor (closure-heap engine, allocating per-packet datapath)
   numbers, measured with the identical drivers below on the growth
   seed. *)
let baseline_words_per_event = 18.00
let baseline_words_per_packet = 74.00

(* Timed passes per workload.  The workloads a bar compares run
   interleaved (a, b, a, b, ...), so load that comes and goes on the
   machine lands on every side alike; one side timed after the other
   would read the load of one moment against that of another.  Every
   reported value is a median over the passes. *)
let passes = 11

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Warm every pass once (fixes array sizes), then [passes] rounds that
   run each pass in turn.  Returns, per pass, its result in every
   round. *)
let interleave fs =
  Array.iter (fun f -> ignore (f ())) fs;
  let rounds = List.init passes (fun _ -> Array.map (fun f -> f ()) fs) in
  Array.mapi (fun i _ -> List.map (fun r -> r.(i)) rounds) fs

(* One timed pass of [f], which returns its op count: (seconds, minor
   words, ops). *)
let timed f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let ops = f () in
  let t1 = Unix.gettimeofday () in
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
        if k > 0 then ignore (Engine.Sim.after sim 10 (fun () -> tick (k - 1)))
      in
      tick n;
      Engine.Sim.run sim;
      n)

(* One timer object re-armed for every firing: the reusable-timer fast
   path (no per-occurrence closure or handle allocation). *)
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
   packet. *)
let datapath_packets () =
  let n = 100_000 in
  timed (fun () ->
      let sim = Engine.Sim.create () in
      let pool = Netsim.Packet.pool sim in
      let link =
        Netsim.Link.create sim ~name:"wire" ~rate:(Engine.Time.gbps 100)
          ~delay:(Engine.Time.us 1) ~pool ()
      in
      let delivered = ref 0 in
      Netsim.Link.set_dst link (fun pkt ->
          incr delivered;
          Netsim.Packet.release pool pkt);
      let gap = Engine.Time.tx_time ~bytes:1500 ~rate:(Engine.Time.gbps 100) in
      let sent = ref 0 in
      ignore
      @@ Engine.Sim.periodic sim ~interval:gap (fun () ->
             Netsim.Link.send link
               (Netsim.Packet.recycle pool ~src:0 ~dst:1 ~size:1500 ());
             incr sent;
             !sent < n);
      Engine.Sim.run sim;
      !delivered)

(* ------------------------------ Scale ------------------------------ *)

(* Fabric-scale sweep: each point builds an interval-routed fabric
   (two-tier Clos, k=16 fat-tree, three-tier Clos), then drives a fixed
   raw-packet permutation workload through pooled packets: 16 spread
   sources send to hosts half a fabric away at half their line rate,
   cycling flow_hash so every ECMP table is exercised.  Reported per
   point: minor words/event, minor words per delivered packet,
   packets/s, events/s.

   Two more measurements feed the guardrail:
   - a pure routing-lookup loop (ports_for + ecmp_port on a warmed
     4096-host edge table) that must allocate nothing at all, and
   - a switch-ingress loop (Switch.receive with no taps or hooks,
     forwarding Consume) that must allocate nothing either. *)

let host_rate = Engine.Time.gbps 10
let fabric_rate = Engine.Time.gbps 40
let delay = Engine.Time.us 2
let sources = 16
let pkts_per_source = 3_000
let lookup_calls = 2_000_000
let ingress_calls = 2_000_000

type world = { sim : Engine.Sim.t; hosts : Netsim.Node.t array }

let build_mls ~pods ~leaves ~spines ~supers ~hpl () =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let mt =
    Netsim.Topology.multi_leaf_spine topo ~pods ~leaves ~spines ~supers
      ~hosts_per_leaf:hpl ~host_rate ~fabric_rate ~delay ()
  in
  { sim; hosts = mt.Netsim.Topology.mt_hosts }

let build_ft ~k () =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let ft =
    Netsim.Topology.fat_tree topo ~k ~host_rate ~fabric_rate ~delay ()
  in
  { sim; hosts = ft.Netsim.Topology.ft_hosts }

type point_spec = { label : string; nhosts : int; build : unit -> world }

let points =
  [ { label = "ls-8x8";
      nhosts = 64;
      build = build_mls ~pods:1 ~leaves:8 ~spines:4 ~supers:0 ~hpl:8 };
    { label = "ls-16x16";
      nhosts = 256;
      build = build_mls ~pods:1 ~leaves:16 ~spines:8 ~supers:0 ~hpl:16 };
    { label = "fat-tree-k16"; nhosts = 1024; build = build_ft ~k:16 };
    { label = "clos-8x16x32";
      nhosts = 4096;
      build =
        build_mls ~pods:8 ~leaves:16 ~spines:8 ~supers:8 ~hpl:32 } ]

(* One workload pass: every source streams [pkts_per_source] packets
   to its antipodal host at half line rate, with a fresh flow_hash per
   packet.  Returns delivered count.  Steady state allocates nothing:
   packets recycle through the pool and timers re-arm in place. *)
let workload w =
  let nhosts = Array.length w.hosts in
  let pool = Netsim.Packet.pool w.sim in
  let delivered = ref 0 in
  Array.iter
    (fun h ->
      Netsim.Node.set_handler h (fun pkt ->
          incr delivered;
          Netsim.Packet.release pool pkt))
    w.hosts;
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
    ignore
      (Engine.Sim.periodic w.sim ~interval:gap (fun () ->
           hash := !hash + 1;
           let h = !hash * 0x9E3779B1 land 0xFFFFFF in
           Netsim.Link.send link
             (Netsim.Packet.recycle pool ~flow_hash:h ~src:src_addr
                ~dst:dst_addr ~size:1500 ());
           incr sent;
           !sent < pkts_per_source))
  done;
  Engine.Sim.run w.sim;
  !delivered

type point_out = {
  p_label : string;
  p_hosts : int;
  p_words_per_event : float;
  p_words_per_packet : float;
  p_pkt_rate : float;
  p_ev_rate : float;
}

(* Build the point's world once; each call of the returned pass runs
   the workload on it again (the first, warming call fills the pool,
   refreshes route live sets and sizes arrays):
   (seconds, minor words, events, delivered). *)
let point_pass spec =
  let w = spec.build () in
  fun () ->
    let e0 = Engine.Sim.events_processed w.sim in
    let secs, words, delivered = timed (fun () -> workload w) in
    (secs, words, Engine.Sim.events_processed w.sim - e0, delivered)

let summarize spec runs =
  let med f = median (List.map f runs) in
  let per n x = x /. float_of_int (max 1 n) in
  { p_label = spec.label;
    p_hosts = spec.nhosts;
    p_words_per_event = med (fun (_, w, e, _) -> per e w);
    p_words_per_packet = med (fun (_, w, _, d) -> per d w);
    p_pkt_rate = med (fun (s, _, _, d) -> float_of_int d /. s);
    p_ev_rate = med (fun (s, _, e, _) -> float_of_int e /. s) }

(* Minor words and calls/s of [calls] runs of [f i]; the loops below
   must allocate nothing at all. *)
let zero_alloc_loop calls f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to calls - 1 do
    f i
  done;
  let t1 = Unix.gettimeofday () in
  let words = Gc.minor_words () -. w0 in
  (words, float_of_int calls /. (t1 -. t0))

(* Pure lookup cost on the biggest table: a warmed edge/leaf table of
   the 4096-host fabric, 2M ports_for + ecmp_port calls over cycling
   (dst, flow_hash) — a bounds-checked array index with no hashing and
   no option or action block. *)
let run_lookup () =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let mt =
    Netsim.Topology.multi_leaf_spine topo ~pods:8 ~leaves:16 ~spines:8
      ~supers:8 ~hosts_per_leaf:32 ~host_rate ~fabric_rate ~delay ()
  in
  let routes = mt.Netsim.Topology.mt_leaf_routes.(0) in
  let nhosts = Array.length mt.Netsim.Topology.mt_hosts in
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

(* The switch ingress every delivered packet passes: counters, the
   tap and hook walks (both empty here) and the forwarding call. *)
let run_ingress () =
  let sim = Engine.Sim.create () in
  let sw = Netsim.Switch.create sim ~name:"sw" () in
  Netsim.Switch.set_forward sw (fun _ -> Netsim.Switch.Consume);
  let pool = Netsim.Packet.pool sim in
  let probe = Netsim.Packet.recycle pool ~src:0 ~dst:1 ~size:1500 () in
  zero_alloc_loop ingress_calls (fun _ -> Netsim.Switch.receive sw probe)

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
      (fun spec -> summarize spec (interleave [| point_pass spec |]).(0))
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
let mtp_recorded_words_1 = 93.42
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
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Engine.Sim.run sim;
  let t1 = Unix.gettimeofday () in
  let words = Gc.minor_words () -. w0 in
  assert (Mtp.Endpoint.completed ea = mtp_messages);
  let acked = float_of_int (mtp_messages * mtp_pkts_per_msg) in
  (t1 -. t0, words /. acked, (t1 -. t0) *. 1e9 /. acked)

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
  { ev_words; ev_rate; tm_words; tm_rate; pk_words; pk_rate; dh_words;
    dh_rate; scale; mtp }

let print_report r =
  Printf.printf "== datapath guardrails ==\n";
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (baseline %.2f)\n"
    "sim event (schedule+dispatch)" r.ev_words r.ev_rate
    baseline_words_per_event;
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (bar 0.00)\n" "timer re-arm"
    r.tm_words r.tm_rate;
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (baseline %.2f)\n"
    "pooled packet forward" r.pk_words r.pk_rate baseline_words_per_packet;
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
    (mtp_ns_ratio r.mtp) mtp_ns_ratio_bar

let write_json r =
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc
    {|{
  "cores": %d,
  "passes": %d,
  "baseline": {
    "minor_words_per_event": %.2f,
    "minor_words_per_packet": %.2f
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
    "event_words_factor": %.2f,
    "packet_words_factor": %.2f
  },
  "scale": {
    "points": [|}
    (Domain.recommended_domain_count ())
    passes baseline_words_per_event baseline_words_per_packet r.ev_words
    r.tm_words r.pk_words r.ev_rate r.pk_rate deep_timers r.dh_words
    r.dh_rate
    (baseline_words_per_event /. Float.max 1e-9 r.ev_words)
    (baseline_words_per_packet /. Float.max 1e-9 r.pk_words);
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
    "\n    ],\n    \"flatness_words_per_event_64\": %.3f,\n    \"flatness_words_per_event_4096\": %.3f,\n    \"flatness_bar\": %.2f,\n    \"flatness_floor\": %.2f,\n    \"lookup_minor_words\": %.1f,\n    \"lookup_calls\": %d,\n    \"lookups_per_sec\": %.0f,\n    \"ingress_minor_words\": %.1f,\n    \"ingress_calls\": %d,\n    \"ingress_per_sec\": %.0f\n  },\n"
    w64 w4096 flatness_bar flat_floor s.lookup_words lookup_calls
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
    "\n    ],\n    \"flatness_words_1\": %.2f,\n    \"flatness_words_128\": %.2f,\n    \"flatness_bar\": %.2f,\n    \"flatness_floor\": %.2f,\n    \"recorded_words_1\": %.2f,\n    \"words_1_bar\": %.2f,\n    \"ns_ratio_128_to_1\": %.2f,\n    \"ns_ratio_bar\": %.2f\n  }\n}\n"
    m1 m128 flatness_bar flat_floor mtp_recorded_words_1 mtp_words_bar
    (mtp_ns_ratio r.mtp) mtp_ns_ratio_bar;
  close_out oc;
  Printf.printf "wrote BENCH_engine.json\n"

(* Allocation bars are stable across machines and enforced tightly;
   the one wall-clock bar is a ratio within one run, so it holds on any
   machine. *)
let guardrail r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if r.ev_words > baseline_words_per_event *. 1.10 then
    fail "event words/op %.2f exceeds baseline %.2f + 10%%" r.ev_words
      baseline_words_per_event;
  if r.pk_words > baseline_words_per_packet *. 1.10 then
    fail "packet words/op %.2f exceeds baseline %.2f + 10%%" r.pk_words
      baseline_words_per_packet;
  (* Re-arming one reusable timer, and popping and re-arming at depth,
     must allocate nothing: the bar is 0.00 words at the two decimals
     reported. *)
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
  let ratio = mtp_ns_ratio r.mtp in
  if not (ratio <= mtp_ns_ratio_bar) then
    fail
      "mtp ns/acked packet at a backlog of 128 is %.2fx that at 1 (bar \
       %.2fx): the send pump's per-ack cost grows with the backlog"
      ratio mtp_ns_ratio_bar;
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
