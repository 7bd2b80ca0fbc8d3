(* Engine guardrail bench: engine event/timer costs, classic packet
   forwarding, the batched breath-loop drain, the fabric-scale sweep,
   and the MTP sender's per-ack cost against its backlog.

   Three guardrail workloads (event dispatch, timer re-arm, pooled
   packet forward) are compared against the pre-refactor growth-seed
   baselines; the burst-drain workload measures the batched datapath
   against its own classic twin and against the seed's packets/s.  The
   scale sweep drives a raw-packet permutation workload through 64 ->
   4096 host fabrics and checks that minor words/event stay flat; the
   mtp section checks the same of minor words per acked packet as one
   sender's backlog grows from 1 to 128 messages.  Results go to stdout
   and, every section in one pass, BENCH_engine.json.

   `--guardrail` additionally enforces the bars (non-zero exit on
   regression) — wired into `make check` and CI next to the parallel
   scaling bench. *)

(* Pre-refactor (closure-heap engine, allocating per-packet datapath)
   numbers, measured with the identical drivers below on the growth
   seed. *)
let baseline_words_per_event = 18.00
let baseline_words_per_packet = 74.00

(* Seed packets/s of the per-packet-event datapath on the reference
   machine (the `pooled packet forward` driver below): the denominator
   of the batched-drain speedup bar. *)
let baseline_packets_per_sec = 2_027_292.

(* Timed runs per workload after the warm-up run.  Best-of-N: the
   minimum elapsed time is the closest observation of the code's own
   cost — slower runs measure scheduler interference from whatever else
   the machine is doing, not this tree. *)
let timed_runs = 3

(* Run [f] once to warm up (fixes array sizes), then [timed_runs]
   timed runs; report (minor words / op, ops / second) for the fastest
   run.  Allocation is deterministic across runs, so words come from
   the same run. *)
let measure f =
  ignore (f ());
  let best = ref (infinity, infinity) in
  let ops = ref 1 in
  for _ = 1 to timed_runs do
    Gc.minor ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ops := f ();
    let t1 = Unix.gettimeofday () in
    let words = Gc.minor_words () -. w0 in
    if t1 -. t0 < fst !best then best := (t1 -. t0, words)
  done;
  let secs, words = !best in
  (words /. float_of_int !ops, float_of_int !ops /. secs)

(* A chain of self-scheduling events: the cost of one [Sim.after] plus
   one dispatch (the app closure itself accounts for a few words). *)
let datapath_events () =
  let n = 200_000 in
  measure (fun () ->
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
  measure (fun () ->
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

(* Steady-state forwarding over a pooled link: one packet on the wire
   at a time (120 ns serialization at 100G, 1 µs propagation), recycled
   on delivery.  With a periodic source there is never more than one
   packet ready per activation, so this measures the unbatchable floor;
   [batched] picks which link machine pays it. *)
let datapath_packets ~batched () =
  let n = 100_000 in
  Netsim.Datapath.with_batching batched (fun () ->
      measure (fun () ->
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
          let gap =
            Engine.Time.tx_time ~bytes:1500 ~rate:(Engine.Time.gbps 100)
          in
          let sent = ref 0 in
          ignore
          @@ Engine.Sim.periodic sim ~interval:gap (fun () ->
                 Netsim.Link.send link
                   (Netsim.Packet.recycle pool ~src:0 ~dst:1 ~size:1500 ());
                 incr sent;
                 !sent < n);
          Engine.Sim.run sim;
          !delivered))

(* The breath-loop drain: a backlog pushed through a zero-delay link
   into a sink.  Batched links walk the backlog [Datapath.burst_limit]
   packets per heap event (arithmetic completion times, heap-proven
   elision) and hand each packet to the sink inline; the classic
   machine pays two events per packet.  Only the drain (the link
   datapath: dequeue, serialization walk, delivery, sink release) is on
   the clock; backlog generation (recycle + enqueue) runs between timed
   sections, chunked to keep the pool warm.  This is the workload behind
   the `batched` section of BENCH_engine.json and the >= 4x bar. *)
let datapath_burst ~batched () =
  let n = 200_000 in
  let chunk = 1_024 in
  Netsim.Datapath.with_batching batched (fun () ->
      let run () =
        let sim = Engine.Sim.create () in
        let pool = Netsim.Packet.pool sim in
        let q = Netsim.Qdisc.fifo ~cap_pkts:(2 * chunk) () in
        let link =
          Netsim.Link.create sim ~name:"wire" ~rate:(Engine.Time.gbps 100)
            ~delay:0 ~qdisc:q ~pool ()
        in
        let delivered = ref 0 in
        Netsim.Link.set_dst link (fun pkt ->
            incr delivered;
            Netsim.Packet.release pool pkt);
        let secs = ref 0.0 in
        let words = ref 0.0 in
        let sent = ref 0 in
        while !sent < n do
          let m = min chunk (n - !sent) in
          for _ = 1 to m do
            Netsim.Link.send link
              (Netsim.Packet.recycle pool ~src:0 ~dst:1 ~size:1500 ())
          done;
          sent := !sent + m;
          let w0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          Engine.Sim.run sim;
          secs := !secs +. (Unix.gettimeofday () -. t0);
          words := !words +. (Gc.minor_words () -. w0)
        done;
        assert (!delivered = n);
        (!secs, !words)
      in
      ignore (run ());
      let best = ref (infinity, infinity) in
      for _ = 1 to timed_runs do
        Gc.minor ();
        let r = run () in
        if fst r < fst !best then best := r
      done;
      let secs, words = !best in
      (words /. float_of_int n, float_of_int n /. secs))

(* ------------------------------ Scale ------------------------------ *)

(* Fabric-scale sweep: each point builds an interval-routed fabric
   (two-tier Clos, k=16 fat-tree, three-tier Clos), then drives a fixed
   raw-packet permutation workload through pooled packets: 16 spread
   sources send to hosts half a fabric away at half their line rate,
   cycling flow_hash so every ECMP table is exercised.  Reported per
   point: minor words/event, minor words per delivered packet,
   packets/s, events/s.

   Three more measurements feed the guardrail:
   - a pure routing-lookup loop (ports_for + ecmp_port on a warmed
     4096-host edge table) that must allocate nothing at all,
   - a switch-ingress loop (Switch.receive with no taps or hooks,
     forwarding Consume) that must allocate nothing either, and
   - the 64-host point re-run on the classic (unbatched) datapath as
     the same-machine not-slower reference. *)

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

(* Build once, warm once (pool fill, route live-set refresh, array
   sizing), then best-of-N timed passes on the same world. *)
let run_point spec =
  let w = spec.build () in
  ignore (workload w);
  let best = ref (infinity, infinity, 0, 0) in
  for _ = 1 to timed_runs do
    Gc.minor ();
    let w0 = Gc.minor_words () in
    let e0 = Engine.Sim.events_processed w.sim in
    let t0 = Unix.gettimeofday () in
    let delivered = workload w in
    let t1 = Unix.gettimeofday () in
    let words = Gc.minor_words () -. w0 in
    let events = Engine.Sim.events_processed w.sim - e0 in
    if t1 -. t0 < (fun (s, _, _, _) -> s) !best then
      best := (t1 -. t0, words, events, delivered)
  done;
  let secs, words, events, delivered = !best in
  { p_label = spec.label;
    p_hosts = spec.nhosts;
    p_words_per_event = words /. float_of_int (max 1 events);
    p_words_per_packet = words /. float_of_int (max 1 delivered);
    p_pkt_rate = float_of_int delivered /. secs;
    p_ev_rate = float_of_int events /. secs }

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
  classic64_pkt_rate : float;
  batched64_pkt_rate : float;
}

let collect_scale () =
  let classic64 =
    Netsim.Datapath.with_batching false (fun () ->
        run_point (List.hd points))
  in
  let pts =
    Netsim.Datapath.with_batching true (fun () -> List.map run_point points)
  in
  let lookup_words, lookup_rate = run_lookup () in
  let ingress_words, ingress_rate = run_ingress () in
  { pts;
    lookup_words;
    lookup_rate;
    ingress_words;
    ingress_rate;
    classic64_pkt_rate = classic64.p_pkt_rate;
    batched64_pkt_rate = (List.hd pts).p_pkt_rate }

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
   send pump over the whole backlog, so this is where per-message
   scheduling cost shows.  Reported per point: minor words and ns per
   acked packet, only [Sim.run] on the clock.  Words must stay flat in
   the backlog (same bar and floor as the scale sweep), and at a
   backlog of 1 must stay within [mtp_words_bar] of the recorded
   [mtp_recorded_words_1]: flatness alone would pass a regression that
   costs every ack the same.  ns are recorded but not gated, since a
   walk over the backlog is expected and absolute times drift with the
   machine. *)

(* Minor words per acked packet at a backlog of 1 when last recorded
   (allocation is deterministic, so the same on any machine). *)
let mtp_recorded_words_1 = 93.42
let mtp_words_bar = 1.15

let mtp_backlogs = [ 1; 16; 128 ]
let mtp_pkts_per_msg = 16
let mtp_messages = 2_048

type mtp_point = { m_backlog : int; m_words : float; m_ns : float }

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

(* Warm once, then best-of-N; words come from the fastest pass. *)
let run_mtp backlog =
  ignore (mtp_pass ~backlog);
  let best = ref (infinity, nan, nan) in
  for _ = 1 to timed_runs do
    let ((secs, _, _) as r) = mtp_pass ~backlog in
    if secs < (fun (s, _, _) -> s) !best then best := r
  done;
  let _, words, ns = !best in
  { m_backlog = backlog; m_words = words; m_ns = ns }

let mtp_flatness pts =
  let words n =
    match List.find_opt (fun p -> p.m_backlog = n) pts with
    | Some p -> p.m_words
    | None -> nan
  in
  (words 1, words 128)

(* ------------------------------ Report ----------------------------- *)

type report = {
  ev_words : float;
  ev_rate : float;
  tm_words : float;
  tm_rate : float;
  pk_words : float;
  pk_rate : float;
  pk_classic_rate : float;
  burst_words : float;
  burst_rate : float;
  burst_classic_rate : float;
  scale : scale;
  mtp : mtp_point list;
}

let collect () =
  let ev_words, ev_rate = datapath_events () in
  let tm_words, tm_rate = datapath_timer () in
  let _, pk_classic_rate = datapath_packets ~batched:false () in
  let pk_words, pk_rate = datapath_packets ~batched:true () in
  let _, burst_classic_rate = datapath_burst ~batched:false () in
  let burst_words, burst_rate = datapath_burst ~batched:true () in
  let scale = collect_scale () in
  let mtp = List.map run_mtp mtp_backlogs in
  { ev_words; ev_rate; tm_words; tm_rate; pk_words; pk_rate;
    pk_classic_rate; burst_words; burst_rate; burst_classic_rate; scale; mtp }

let print_report r =
  Printf.printf "== datapath guardrails ==\n";
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (baseline %.2f)\n"
    "sim event (schedule+dispatch)" r.ev_words r.ev_rate
    baseline_words_per_event;
  Printf.printf "%-32s %8.2f words/op %12.0f op/s\n" "timer re-arm" r.tm_words
    r.tm_rate;
  Printf.printf "%-32s %8.2f words/op %12.0f op/s (baseline %.2f)\n"
    "pooled packet forward" r.pk_words r.pk_rate baseline_words_per_packet;
  Printf.printf "%-32s %21s %12.0f op/s\n" "pooled packet forward (classic)"
    "" r.pk_classic_rate;
  Printf.printf "\n== batched breath-loop ==\n";
  Printf.printf "%-32s %8.2f words/op %12.0f pkt/s\n" "burst drain (batched)"
    r.burst_words r.burst_rate;
  Printf.printf "%-32s %21s %12.0f pkt/s\n" "burst drain (classic)" ""
    r.burst_classic_rate;
  Printf.printf "%-32s %8.2fx vs seed (%.0f), %.2fx vs per-packet datapath, %.2fx vs classic twin\n"
    "speedup" (r.burst_rate /. baseline_packets_per_sec)
    baseline_packets_per_sec
    (r.burst_rate /. Float.max 1e-9 r.pk_classic_rate)
    (r.burst_rate /. Float.max 1e-9 r.burst_classic_rate);
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
  Printf.printf "%-14s batched %.0f pkt/s vs classic %.0f pkt/s at 64 hosts\n"
    "not-slower" s.batched64_pkt_rate s.classic64_pkt_rate;
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
    "absolute" m1 mtp_recorded_words_1 mtp_words_bar

let write_json r =
  let oc = open_out "BENCH_engine.json" in
  Printf.fprintf oc
    {|{
  "baseline": {
    "minor_words_per_event": %.2f,
    "minor_words_per_packet": %.2f,
    "packets_per_sec": %.0f
  },
  "current": {
    "minor_words_per_event": %.2f,
    "minor_words_per_timer_rearm": %.2f,
    "minor_words_per_packet": %.2f,
    "events_per_sec": %.0f,
    "packets_per_sec": %.0f,
    "classic_packets_per_sec": %.0f
  },
  "batched": {
    "burst_packets_per_sec": %.0f,
    "burst_classic_packets_per_sec": %.0f,
    "minor_words_per_burst_packet": %.2f,
    "speedup_vs_baseline": %.2f,
    "speedup_vs_classic_forward": %.2f,
    "speedup_vs_classic": %.2f
  },
  "reduction": {
    "event_words_factor": %.2f,
    "packet_words_factor": %.2f
  },
  "scale": {
    "points": [|}
    baseline_words_per_event baseline_words_per_packet
    baseline_packets_per_sec r.ev_words r.tm_words r.pk_words r.ev_rate
    r.pk_rate r.pk_classic_rate r.burst_rate r.burst_classic_rate
    r.burst_words
    (r.burst_rate /. baseline_packets_per_sec)
    (r.burst_rate /. Float.max 1e-9 r.pk_classic_rate)
    (r.burst_rate /. Float.max 1e-9 r.burst_classic_rate)
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
    "\n    ],\n    \"flatness_words_per_event_64\": %.3f,\n    \"flatness_words_per_event_4096\": %.3f,\n    \"flatness_bar\": %.2f,\n    \"flatness_floor\": %.2f,\n    \"lookup_minor_words\": %.1f,\n    \"lookup_calls\": %d,\n    \"lookups_per_sec\": %.0f,\n    \"ingress_minor_words\": %.1f,\n    \"ingress_calls\": %d,\n    \"ingress_per_sec\": %.0f,\n    \"batched_pkt_rate_64\": %.0f,\n    \"classic_pkt_rate_64\": %.0f\n  },\n"
    w64 w4096 flatness_bar flat_floor s.lookup_words lookup_calls
    s.lookup_rate s.ingress_words ingress_calls s.ingress_rate
    s.batched64_pkt_rate s.classic64_pkt_rate;
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
    "\n    ],\n    \"flatness_words_1\": %.2f,\n    \"flatness_words_128\": %.2f,\n    \"flatness_bar\": %.2f,\n    \"flatness_floor\": %.2f,\n    \"recorded_words_1\": %.2f,\n    \"words_1_bar\": %.2f\n  }\n}\n"
    m1 m128 flatness_bar flat_floor mtp_recorded_words_1 mtp_words_bar;
  close_out oc;
  Printf.printf "wrote BENCH_engine.json\n"

(* Allocation bars are stable across machines and enforced tightly.
   The speedup bar is normalized: absolute rates scale with how fast
   (and how loaded) the machine is, so the 4x requirement is enforced
   against the classic per-packet datapath measured in the SAME run —
   whose rate on the reference machine is exactly the recorded
   [baseline_packets_per_sec].  The unnormalized speedup is still
   reported in BENCH_engine.json. *)
let guardrail r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if r.ev_words > baseline_words_per_event *. 1.10 then
    fail "event words/op %.2f exceeds baseline %.2f + 10%%" r.ev_words
      baseline_words_per_event;
  if r.pk_words > baseline_words_per_packet *. 1.10 then
    fail "packet words/op %.2f exceeds baseline %.2f + 10%%" r.pk_words
      baseline_words_per_packet;
  if r.burst_rate < 4.0 *. r.pk_classic_rate then
    fail
      "batched drain %.0f pkt/s below 4x the classic per-packet datapath \
       measured this run (%.0f pkt/s)"
      r.burst_rate r.pk_classic_rate;
  (* Not-slower: on the unbatchable single-packet cadence the batched
     machine must stay within noise of the classic one. *)
  if r.pk_rate < 0.70 *. r.pk_classic_rate then
    fail "batched pooled forward %.0f pkt/s below 70%% of classic (%.0f)"
      r.pk_rate r.pk_classic_rate;
  if r.burst_rate < r.burst_classic_rate then
    fail "batched drain %.0f pkt/s slower than classic twin (%.0f)"
      r.burst_rate r.burst_classic_rate;
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
  if s.batched64_pkt_rate < 0.90 *. s.classic64_pkt_rate then
    fail
      "batched fabric %.0f pkt/s below 90%% of classic (%.0f) at 64 hosts"
      s.batched64_pkt_rate s.classic64_pkt_rate;
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
