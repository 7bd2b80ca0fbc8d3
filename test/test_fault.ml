(* Fault injection: link up/down semantics, seeded loss processes,
   blackholes, routing reconvergence, the ledger's pool invariant, and
   transport-side failure handling (MTP pathlet suspects and probes,
   message deadlines, TCP max-retry aborts).

   Every network test here finishes with a {!Check.Ledger} check:
   fault paths must conserve packets, and must never leak pooled
   ones. *)

open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Counter-based conservation: it also covers transport traffic,
   which is allocated with [Packet.make] and invisible to any pool.
   Watch the links right after topology construction, assert the delta
   at the end.  With [pool], the ledger also checks that every packet
   checked out of it is queued or flying on one of [links]. *)
let watch_links ?pool links =
  let ledger = Check.Ledger.create () in
  List.iter (Check.Ledger.watch_link ledger) links;
  Option.iter (Check.Ledger.watch_pool ledger) pool;
  ledger

let ledger_ok ledger =
  match Check.Ledger.check ledger with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* One pooled link feeding a counter, every delivery released back. *)
let pooled_link ?(rate = Engine.Time.gbps 1) ?(delay = Engine.Time.us 1)
    ?qdisc () =
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let link = Link.create sim ~name:"l" ~rate ~delay ?qdisc ~pool () in
  let delivered = ref 0 in
  Link.set_dst link (fun p ->
      incr delivered;
      Packet.release pool p);
  (sim, pool, link, delivered)

let send_one pool link = Link.send link (Packet.recycle pool ~src:0 ~dst:1 ~size:1500 ())

(* --------------------------- link faults --------------------------- *)

let test_link_down_drops_and_up_resumes () =
  (* 1500 B at 1 Gbps serialises in 12 us: at t=30us two packets have
     delivered, one is on the wire, the rest are queued. *)
  let sim, pool, link, delivered = pooled_link () in
  let ledger = watch_links ~pool [ link ] in
  for _ = 1 to 10 do
    send_one pool link
  done;
  Engine.Sim.run ~until:(Engine.Time.us 30) sim;
  checkb "starts up" true (Link.is_up link);
  Link.set_down link;
  checkb "reports down" false (Link.is_up link);
  let before = !delivered in
  checkb "made some progress first" true (before > 0);
  (* Sending into a down link destroys the packet immediately. *)
  send_one pool link;
  Engine.Sim.run ~until:(Engine.Time.ms 1) sim;
  checki "no deliveries while down" before !delivered;
  checki "queue flushed" 0 (Link.queued_pkts link);
  checki "wire empty" 0 (Link.in_flight_pkts link);
  checki "every lost packet counted" (10 + 1 - before) (Link.fault_drops link);
  ledger_ok ledger;
  Link.set_up link;
  send_one pool link;
  Engine.Sim.run ~until:(Engine.Time.ms 2) sim;
  checki "delivery resumes after set_up" (before + 1) !delivered;
  ledger_ok ledger

let test_fault_plan_schedules_and_logs () =
  let sim, pool, link, _ = pooled_link () in
  let ledger = watch_links ~pool [ link ] in
  let fault = Fault.plan ~seed:3 sim in
  Fault.link_down fault ~at:(Engine.Time.us 100) link;
  Fault.link_up fault ~at:(Engine.Time.us 300) link;
  Engine.Sim.run ~until:(Engine.Time.us 200) sim;
  checkb "down after scheduled failure" false (Link.is_up link);
  Engine.Sim.run ~until:(Engine.Time.us 400) sim;
  checkb "up after scheduled repair" true (Link.is_up link);
  checki "both transitions logged" 2 (List.length (Fault.events fault));
  ledger_ok ledger

(* --------------------------- loss processes ------------------------ *)

let ge_run seed =
  let sim, pool, link, delivered =
    pooled_link ~rate:(Engine.Time.gbps 10) ()
  in
  let fault = Fault.plan ~seed sim in
  Fault.gilbert_elliott fault ~p_gb:0.05 ~p_bg:0.2 ~loss_bad:0.5 link;
  let ledger = watch_links ~pool [ link ] in
  let sent = ref 0 in
  ignore
    (Engine.Sim.periodic sim ~interval:(Engine.Time.us 2) (fun () ->
         send_one pool link;
         incr sent;
         !sent < 1000));
  Engine.Sim.run sim;
  ledger_ok ledger;
  (Fault.loss_drops fault, !delivered)

let test_gilbert_elliott_lossy_and_deterministic () =
  let drops, delivered = ge_run 11 in
  checkb "bursty loss happened" true (drops > 0);
  checki "conservation: delivered + dropped = sent" 1000 (drops + delivered);
  let drops', delivered' = ge_run 11 in
  checki "same seed, same losses" drops drops';
  checki "same seed, same deliveries" delivered delivered'

let test_corrupt_rate_and_validation () =
  let sim, pool, link, delivered =
    pooled_link ~rate:(Engine.Time.gbps 10) ()
  in
  let fault = Fault.plan ~seed:5 sim in
  Fault.corrupt fault ~rate:0.3 link;
  let ledger = watch_links ~pool [ link ] in
  let sent = ref 0 in
  ignore
    (Engine.Sim.periodic sim ~interval:(Engine.Time.us 2) (fun () ->
         send_one pool link;
         incr sent;
         !sent < 1000));
  Engine.Sim.run sim;
  let drops = Fault.loss_drops fault in
  checki "conservation" 1000 (drops + !delivered);
  checkb "rate roughly honoured" true (drops > 200 && drops < 400);
  ledger_ok ledger;
  checkb "rate >= 1 rejected" true
    (try
       Fault.corrupt fault ~rate:1.0 link;
       false
     with Invalid_argument _ -> true)

(* ----------------------------- blackhole --------------------------- *)

let test_blackhole_absorbs_in_window () =
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let sw = Switch.create sim ~name:"s" ~pool () in
  let out =
    Link.create sim ~name:"out" ~rate:(Engine.Time.gbps 10) ~delay:0 ~pool ()
  in
  let delivered = ref 0 in
  Link.set_dst out (fun p ->
      incr delivered;
      Packet.release pool p);
  let port = Switch.add_port sw out in
  let routes = Routing.create () in
  Routing.add routes 7 port;
  Switch.set_forward sw (Routing.static routes);
  let ledger = watch_links ~pool [ out ] in
  Check.Ledger.watch_switch ledger sw;
  let fault = Fault.plan sim in
  Fault.blackhole fault ~from:(Engine.Time.us 10) ~until:(Engine.Time.us 20)
    sw ~dst:7;
  let inject at =
    ignore
      (Engine.Sim.schedule sim ~at (fun () ->
           Switch.receive sw (Packet.recycle pool ~src:0 ~dst:7 ~size:100 ())))
  in
  inject (Engine.Time.us 5);
  inject (Engine.Time.us 15);
  inject (Engine.Time.us 25);
  Engine.Sim.run sim;
  checki "inside the window absorbed" 1 (Fault.blackholed fault);
  checki "outside the window forwarded" 2 !delivered;
  checki "plan total counts it" 1 (Fault.drops fault);
  ledger_ok ledger

(* ------------------------ routing reconvergence -------------------- *)

let test_reroute_detection_delay_and_flaps () =
  let sim, pool, link, _ = pooled_link () in
  let ledger = watch_links ~pool [ link ] in
  let routes = Routing.create () in
  Routing.add routes 5 0;
  Routing.add routes 5 1;
  let fault = Fault.plan sim in
  Fault.reroute fault routes ~port:0 ~detect:(Engine.Time.us 100) link;
  (* A flap shorter than the detection delay is invisible. *)
  Fault.link_down fault ~at:(Engine.Time.us 10) link;
  Fault.link_up fault ~at:(Engine.Time.us 50) link;
  Engine.Sim.run ~until:(Engine.Time.us 180) sim;
  checkb "flap below detect not withdrawn" false (Routing.port_removed routes 0);
  (* A real outage is withdrawn one detection delay later... *)
  Fault.link_down fault ~at:(Engine.Time.us 200) link;
  Engine.Sim.run ~until:(Engine.Time.us 250) sim;
  checkb "not yet detected" false (Routing.port_removed routes 0);
  Engine.Sim.run ~until:(Engine.Time.us 350) sim;
  checkb "withdrawn after detect" true (Routing.port_removed routes 0);
  checki "only the survivor offered" 1
    (Array.length (Routing.ports_for routes 5));
  (* ...and restored one detection delay after repair. *)
  Fault.link_up fault ~at:(Engine.Time.us 400) link;
  Engine.Sim.run ~until:(Engine.Time.us 550) sim;
  checkb "restored after detect" false (Routing.port_removed routes 0);
  checki "both ports back" 2 (Array.length (Routing.ports_for routes 5));
  ledger_ok ledger

(* ----------------------------- pool leaks -------------------------- *)

let test_pool_leak_flagged () =
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let ledger = watch_links ~pool [] in
  let p = Packet.recycle pool ~src:0 ~dst:1 ~size:100 () in
  checkb "outstanding packet flagged" true
    (Check.Ledger.failures ledger <> []);
  Alcotest.(check (list string))
    "a held packet is accounted" [] (Check.Ledger.failures ~held:1 ledger);
  Packet.release pool p;
  ledger_ok ledger

(* ----------------------- MTP pathlet failover ---------------------- *)

let r1 = { Mtp.Wire.path_id = 1; path_tc = 0 }
let r2 = { Mtp.Wire.path_id = 2; path_tc = 0 }

let test_pathlet_suspect_probe_revive () =
  let tbl =
    Mtp.Pathlet.create ~suspect_after:2 ~probe_interval:(Engine.Time.us 100)
      Mtp.Cc.Dctcp
  in
  (* Touch both pathlets so steering sees them. *)
  ignore (Mtp.Pathlet.get tbl r1);
  ignore (Mtp.Pathlet.get tbl r2);
  Mtp.Pathlet.note_timeout tbl [ r1 ] ~now:0;
  checkb "one strike is not suspect" false (Mtp.Pathlet.suspect tbl r1);
  checki "strike counted" 1 (Mtp.Pathlet.strikes tbl r1);
  Mtp.Pathlet.note_timeout tbl [ r1 ] ~now:(Engine.Time.us 10);
  checkb "suspect after threshold" true (Mtp.Pathlet.suspect tbl r1);
  checki "suspect listed" 1 (List.length (Mtp.Pathlet.suspects tbl));
  (* Steering avoids the suspect while an alternative exists. *)
  checkb "best_of avoids suspect" true (Mtp.Pathlet.best_of tbl [ r1; r2 ] = [ r2 ]);
  checkb "all-suspect input falls back" true
    (Mtp.Pathlet.best_of tbl [ r1 ] = [ r1 ]);
  (* Probing: not before the interval, once per interval after it. *)
  checkb "no probe before interval" true
    (Mtp.Pathlet.probe_target tbl ~now:(Engine.Time.us 50) = None);
  checkb "probe offered after interval" true
    (Mtp.Pathlet.probe_target tbl ~now:(Engine.Time.us 150) = Some r1);
  checkb "probe not repeated immediately" true
    (Mtp.Pathlet.probe_target tbl ~now:(Engine.Time.us 160) = None);
  (* A probe's ack revives the pathlet. *)
  Mtp.Pathlet.note_progress tbl [ r1 ];
  checkb "revived" false (Mtp.Pathlet.suspect tbl r1);
  checki "no suspects left" 0 (List.length (Mtp.Pathlet.suspects tbl));
  checki "strikes cleared" 0 (Mtp.Pathlet.strikes tbl r1);
  (match Check.Oracle.pathlets_consistent tbl with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

let mtp_pair () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  let ab, ba =
    Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ()
  in
  (sim, a, b, ab, watch_links [ ab; ba ])

let test_endpoint_deadline_on_error () =
  let sim, a, b, ab, ledger = mtp_pair () in
  let ea = Mtp.Endpoint.attach (Host.create a) in
  let eb = Mtp.Endpoint.attach (Host.create b) in
  Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
  Link.set_down ab;
  let errors = ref [] in
  let completed = ref false in
  ignore
    (Mtp.Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80
       ~deadline:(Engine.Time.us 500)
       ~on_complete:(fun _ -> completed := true)
       ~on_error:(fun elapsed -> errors := elapsed :: !errors)
       ~size:10_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 5) sim;
  checkb "never completed" false !completed;
  checki "on_error fired once" 1 (List.length !errors);
  checkb "after the deadline" true
    (match !errors with [ e ] -> e >= Engine.Time.us 500 | _ -> false);
  checki "failure counted" 1 (Mtp.Endpoint.failed ea);
  ledger_ok ledger;
  match Check.Oracle.endpoint_ok ea with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_endpoint_deadline_met_no_error () =
  let sim, a, b, _, ledger = mtp_pair () in
  let ea = Mtp.Endpoint.attach (Host.create a) in
  let eb = Mtp.Endpoint.attach (Host.create b) in
  Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
  let errors = ref 0 and completed = ref false in
  ignore
    (Mtp.Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80
       ~deadline:(Engine.Time.ms 2)
       ~on_complete:(fun _ -> completed := true)
       ~on_error:(fun _ -> incr errors)
       ~size:10_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 5) sim;
  checkb "completed" true !completed;
  checki "no error" 0 !errors;
  checki "no failures counted" 0 (Mtp.Endpoint.failed ea);
  ledger_ok ledger;
  match Check.Oracle.endpoint_ok ea with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Two messages in the middle of a backlog queued behind a down link
   pass their deadline: they are aborted, and not one of their data
   packets reaches the link afterwards, while the rest complete once
   the link is back. *)
let test_endpoint_deadline_abort_in_backlog () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  let aborted = ref [] and late = ref 0 and seen = ref 0 in
  let inner = Qdisc.fifo ~cap_pkts:256 () in
  let enqueue p =
    (match p.Packet.payload with
    | Mtp.Wire.Mtp h when not h.Mtp.Wire.is_ack ->
      incr seen;
      if List.mem h.Mtp.Wire.msg_id !aborted then incr late
    | _ -> ());
    inner.Qdisc.enqueue p
  in
  let ab, ba =
    Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2)
      ~ab_qdisc:
        { inner with
          Qdisc.enqueue;
          enqueue_burst = Qdisc.burst_of_enqueue enqueue }
      ()
  in
  let ledger = watch_links [ ab; ba ] in
  let ea = Mtp.Endpoint.attach (Host.create a) in
  let eb = Mtp.Endpoint.attach (Host.create b) in
  Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
  Link.set_down ab;
  ignore
    (Engine.Sim.schedule sim ~at:(Engine.Time.ms 1) (fun () -> Link.set_up ab));
  let doomed = ref [] and completed = ref 0 in
  for i = 0 to 7 do
    let deadline = if i = 3 || i = 4 then Some (Engine.Time.us 300) else None in
    let me = ref (-1) in
    me :=
      Mtp.Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ?deadline
        ~on_complete:(fun _ -> incr completed)
        ~on_error:(fun _ ->
          checkb "aborted while the link is down" false (Link.is_up ab);
          aborted := !me :: !aborted)
        ~size:20_000 ();
    if deadline <> None then doomed := !me :: !doomed
  done;
  Engine.Sim.run ~until:(Engine.Time.ms 30) sim;
  checki "both aborted" 2 (Mtp.Endpoint.failed ea);
  Alcotest.(check (list int))
    "the aborted ones carried the deadline" (List.sort compare !doomed)
    (List.sort compare !aborted);
  checki "the rest complete" 6 !completed;
  checkb "traffic flowed once the link was back" true (!seen > 0);
  checki "no packet of an aborted message after its abort" 0 !late;
  ledger_ok ledger;
  match Check.Oracle.endpoint_ok ea with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Flight conservation: mid-transfer, over a lossy link, every
   pathlet's in-flight bytes match the packets charged to it; a stray
   charge breaks the match and the oracle names it. *)
let test_endpoint_flight_conserved () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 1)
       ~delay:(Engine.Time.us 2)
       ~ab_qdisc:(Qdisc.trimming ~cap_pkts:8 ~header_size:64 ())
       ());
  let ea = Mtp.Endpoint.attach (Host.create a) in
  let eb = Mtp.Endpoint.attach (Host.create b) in
  Mtp.Endpoint.bind eb ~port:80 (fun _ -> ());
  for i = 1 to 6 do
    ignore
      (Mtp.Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~pri:(i mod 2)
         ~size:(i * 20_000) ())
  done;
  let checks = ref 0 and busy = ref 0 in
  let rec sample () =
    incr checks;
    if Mtp.Endpoint.charged_flight ea <> [] then incr busy;
    (match Check.Oracle.endpoint_ok ea with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    if Mtp.Endpoint.active_messages ea > 0 then
      ignore (Engine.Sim.after sim (Engine.Time.us 7) sample)
  in
  sample ();
  Engine.Sim.run ~until:(Engine.Time.ms 20) sim;
  checkb "sampled mid-transfer" true (!busy > 10);
  checkb "all done" true (Mtp.Endpoint.completed ea = 6);
  checkb "nothing in flight once done" true
    (Mtp.Endpoint.charged_flight ea = []);
  Mtp.Pathlet.charge (Mtp.Endpoint.pathlets ea)
    [ { Mtp.Wire.path_id = 0; path_tc = 0 } ]
    100;
  checkb "stray charge caught" true
    (Result.is_error (Check.Oracle.endpoint_ok ea))

(* --------------------------- TCP abort ----------------------------- *)

let test_tcp_max_retries_aborts () =
  let sim, a, b, ab, ledger = mtp_pair () in
  let client = Transport.Tcp.attach ~max_retries:3 (Host.create a) in
  let server = Transport.Tcp.attach (Host.create b) in
  Transport.Tcp.listen server ~port:80 (fun _ -> ());
  Link.set_down ab;
  let conn =
    Transport.Tcp.connect client ~dst:(Node.addr b) ~dst_port:80 ()
  in
  let errored = ref false in
  Transport.Tcp.set_on_error conn (fun _ -> errored := true);
  Transport.Tcp.send conn 100_000;
  Engine.Sim.run ~until:(Engine.Time.ms 200) sim;
  checkb "connection aborted" true (Transport.Tcp.aborted conn);
  checkb "on_error delivered" true !errored;
  checkb "no longer open" false (Transport.Tcp.is_open conn);
  ledger_ok ledger

let test_tcp_survives_within_retry_budget () =
  (* An outage shorter than the retry budget: the connection must come
     back, not abort. *)
  let sim, a, b, ab, ledger = mtp_pair () in
  let client = Transport.Tcp.attach ~max_retries:15 (Host.create a) in
  let server = Transport.Tcp.attach (Host.create b) in
  let received = ref 0 in
  Transport.Tcp.listen server ~port:80 (fun conn ->
      Transport.Tcp.set_on_data conn (fun _ n -> received := !received + n));
  let conn =
    Transport.Tcp.connect client ~dst:(Node.addr b) ~dst_port:80 ()
  in
  Transport.Tcp.send conn 100_000;
  ignore
    (Engine.Sim.schedule sim ~at:(Engine.Time.us 50) (fun () ->
         Link.set_down ab));
  ignore
    (Engine.Sim.schedule sim ~at:(Engine.Time.ms 2) (fun () ->
         Link.set_up ab));
  Engine.Sim.run ~until:(Engine.Time.ms 100) sim;
  checkb "not aborted" false (Transport.Tcp.aborted conn);
  checki "all bytes eventually through" 100_000 !received;
  checkb "timeouts were taken" true (Transport.Tcp.timeouts conn > 0);
  ledger_ok ledger

let suite =
  [ Alcotest.test_case "link down/up" `Quick test_link_down_drops_and_up_resumes;
    Alcotest.test_case "fault plan schedule" `Quick
      test_fault_plan_schedules_and_logs;
    Alcotest.test_case "gilbert-elliott" `Quick
      test_gilbert_elliott_lossy_and_deterministic;
    Alcotest.test_case "corruption" `Quick test_corrupt_rate_and_validation;
    Alcotest.test_case "blackhole" `Quick test_blackhole_absorbs_in_window;
    Alcotest.test_case "reroute detection" `Quick
      test_reroute_detection_delay_and_flaps;
    Alcotest.test_case "audit leaks" `Quick test_pool_leak_flagged;
    Alcotest.test_case "pathlet suspect/probe" `Quick
      test_pathlet_suspect_probe_revive;
    Alcotest.test_case "endpoint deadline error" `Quick
      test_endpoint_deadline_on_error;
    Alcotest.test_case "endpoint deadline met" `Quick
      test_endpoint_deadline_met_no_error;
    Alcotest.test_case "endpoint deadline abort in backlog" `Quick
      test_endpoint_deadline_abort_in_backlog;
    Alcotest.test_case "endpoint flight conserved" `Quick
      test_endpoint_flight_conserved;
    Alcotest.test_case "tcp abort" `Quick test_tcp_max_retries_aborts;
    Alcotest.test_case "tcp outage survival" `Quick
      test_tcp_survives_within_retry_budget ]
