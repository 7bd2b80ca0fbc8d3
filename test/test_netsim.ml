(* Tests for packets, qdiscs, links, switches, routing, topologies. *)

open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let psim = Engine.Sim.create ()

let pkt ?size ?entity ?prio ?flow_hash ?src ?dst () =
  Testpkt.raw ?size ?entity ?prio ?flow_hash ?src ?dst psim

(* ------------------------------ Packet ----------------------------- *)

let test_packet_uids_unique () =
  let a = pkt () and b = pkt () in
  checkb "distinct uids" true (a.Packet.uid <> b.Packet.uid)

let test_packet_rejects_empty () =
  Alcotest.check_raises "positive size"
    (Invalid_argument "Packet.take: size must be positive") (fun () ->
      ignore (pkt ~size:0 ()))

let test_flow_hash_stable () =
  let h1 = Packet.flow_hash_of ~src:1 ~dst:2 ~src_port:3 ~dst_port:4 in
  let h2 = Packet.flow_hash_of ~src:1 ~dst:2 ~src_port:3 ~dst_port:4 in
  let h3 = Packet.flow_hash_of ~src:1 ~dst:2 ~src_port:5 ~dst_port:4 in
  checki "deterministic" h1 h2;
  checkb "port-sensitive" true (h1 <> h3)

(* ------------------------------ Qdisc ------------------------------ *)

let test_fifo_order_and_caps () =
  let q = Qdisc.fifo ~cap_pkts:2 () in
  let a = pkt () and b = pkt () and c = pkt () in
  checkb "a in" true (q.Qdisc.enqueue a);
  checkb "b in" true (q.Qdisc.enqueue b);
  checkb "c dropped" false (q.Qdisc.enqueue c);
  checki "drops" 1 (q.Qdisc.drops ());
  checki "bytes" 3000 (q.Qdisc.byte_length ());
  checki "fifo head" a.Packet.uid (q.Qdisc.dequeue ()).Packet.uid;
  checki "bytes after" 1500 (q.Qdisc.byte_length ())

let test_ecn_marks_above_threshold () =
  let q = Qdisc.ecn ~cap_pkts:100 ~mark_threshold:2 () in
  let pkts = List.init 4 (fun _ -> pkt ()) in
  List.iter (fun p -> ignore (q.Qdisc.enqueue p)) pkts;
  let marked = List.filter Packet.ecn_ce pkts in
  (* Packets 3 and 4 arrive when depth >= 2. *)
  checki "two marked" 2 (List.length marked);
  checki "marks counter" 2 (q.Qdisc.marks ())

let test_trimming_trims_not_drops () =
  let q = Qdisc.trimming ~cap_pkts:2 () in
  ignore (q.Qdisc.enqueue (pkt ()));
  ignore (q.Qdisc.enqueue (pkt ()));
  let extra = pkt () in
  checkb "accepted as header" true (q.Qdisc.enqueue extra);
  checkb "trimmed" true (Packet.trimmed extra);
  checki "shrunk" 64 extra.Packet.size;
  (* Trimmed headers are served first. *)
  checki "priority to header" extra.Packet.uid (q.Qdisc.dequeue ()).Packet.uid

let test_wrr_shares_by_weight () =
  let q =
    Qdisc.wrr ~classify:(fun p -> p.Packet.entity) ~weights:[| 1; 3 |]
      ~cap_pkts:100 ()
  in
  for _ = 1 to 40 do
    ignore (q.Qdisc.enqueue (pkt ~entity:0 ()));
    ignore (q.Qdisc.enqueue (pkt ~entity:1 ()))
  done;
  let served = [| 0; 0 |] in
  for _ = 1 to 40 do
    let p = q.Qdisc.dequeue () in
    if p != Packet.none then
      served.(p.Packet.entity) <- served.(p.Packet.entity) + 1
  done;
  (* Expect close to a 1:3 split over 40 dequeues. *)
  checkb "weighted split" true (served.(1) > 2 * served.(0))

let test_wrr_work_conserving () =
  let q =
    Qdisc.wrr ~classify:(fun p -> p.Packet.entity) ~weights:[| 1; 9 |]
      ~cap_pkts:100 ()
  in
  (* Only the low-weight class has traffic: it must still be served. *)
  for _ = 1 to 5 do
    ignore (q.Qdisc.enqueue (pkt ~entity:0 ()))
  done;
  let n = ref 0 in
  let rec drain () =
    if q.Qdisc.dequeue () != Packet.none then begin
      incr n;
      drain ()
    end
  in
  drain ();
  checki "all served" 5 !n

let test_fair_mark_targets_heavy_class () =
  let q =
    Qdisc.fair_mark ~classify:(fun p -> p.Packet.entity) ~cap_pkts:1000
      ~mark_threshold:4 ()
  in
  (* Entity 1 floods; entity 0 sends a little, interleaved early. *)
  let light = List.init 3 (fun _ -> pkt ~entity:0 ()) in
  let heavy = List.init 30 (fun _ -> pkt ~entity:1 ()) in
  List.iter (fun p -> ignore (q.Qdisc.enqueue p)) light;
  List.iter (fun p -> ignore (q.Qdisc.enqueue p)) heavy;
  let heavy_marked = List.length (List.filter Packet.ecn_ce heavy) in
  let light_marked = List.length (List.filter Packet.ecn_ce light) in
  checkb "heavy class marked" true (heavy_marked > 5);
  checki "light class unmarked" 0 light_marked

let test_red_marks_probabilistically () =
  let rng = Engine.Rng.create 5 in
  let q = Qdisc.red ~rng ~cap_pkts:200 ~min_th:10 ~max_th:50 () in
  (* Hold the queue deep so the EWMA climbs past min_th. *)
  let marked = ref 0 and total = 0 |> ref in
  for _ = 1 to 2000 do
    let p = pkt () in
    ignore (q.Qdisc.enqueue p);
    incr total;
    if Packet.ecn_ce p then incr marked;
    (* Drain one of every two packets to keep depth ~high. *)
    if !total mod 2 = 0 then ignore (q.Qdisc.dequeue ())
  done;
  checkb "some marks" true (!marked > 0);
  checkb "not everything marked" true (!marked < !total);
  checki "counter consistent" !marked (q.Qdisc.marks ())

let test_red_quiet_queue_unmarked () =
  let rng = Engine.Rng.create 5 in
  let q = Qdisc.red ~rng ~cap_pkts:200 ~min_th:10 ~max_th:50 () in
  for _ = 1 to 100 do
    ignore (q.Qdisc.enqueue (pkt ()));
    ignore (q.Qdisc.dequeue ())
  done;
  checki "shallow queue never marks" 0 (q.Qdisc.marks ())

let test_red_validates_thresholds () =
  let rng = Engine.Rng.create 5 in
  Alcotest.check_raises "bad thresholds"
    (Invalid_argument "Qdisc.red: thresholds") (fun () ->
      ignore (Qdisc.red ~rng ~cap_pkts:10 ~min_th:8 ~max_th:4 ()))

(* qcheck: packet conservation — every enqueued packet is either still
   queued, dequeued, or was refused; nothing is duplicated or lost.
   Checked across qdisc families under random op sequences. *)
let prop_qdisc_conservation =
  let make_qdisc = function
    | 0 -> Qdisc.fifo ~cap_pkts:16 ()
    | 1 -> Qdisc.ecn ~cap_pkts:16 ~mark_threshold:4 ()
    | _ ->
      Qdisc.wrr
        ~classify:(fun p -> p.Packet.entity)
        ~weights:[| 1; 2 |] ~cap_pkts:8 ()
  in
  QCheck.Test.make ~name:"qdisc conservation under random ops" ~count:100
    QCheck.(pair (int_range 0 2) (list_of_size Gen.(1 -- 200) bool))
    (fun (kind, ops) ->
      let q = make_qdisc kind in
      let accepted = ref 0 and refused = ref 0 and out = ref 0 in
      List.iteri
        (fun i enq ->
          if enq then begin
            let p = pkt ~entity:(i land 1) ~prio:(i mod 3) () in
            if q.Qdisc.enqueue p then incr accepted else incr refused
          end
          else if q.Qdisc.dequeue () != Packet.none then incr out)
        ops;
      let rec drain () =
        if q.Qdisc.dequeue () != Packet.none then begin
          incr out;
          drain ()
        end
      in
      drain ();
      !accepted = !out && q.Qdisc.pkt_length () = 0 && q.Qdisc.byte_length () = 0)

let test_hooks_fire () =
  let enq = ref 0 in
  let q =
    Qdisc.with_hooks ~on_enqueue:(fun _ -> incr enq) (Qdisc.fifo ~cap_pkts:1 ())
  in
  ignore (q.Qdisc.enqueue (pkt ()));
  ignore (q.Qdisc.enqueue (pkt ()));
  ignore (q.Qdisc.dequeue ());
  checki "enqueue hook, not on a refusal" 1 !enq

(* Every policy answers an empty queue with the [Packet.none] sentinel
   (never a queued packet) and pops in its policy's order: FIFO for the
   single-queue policies, trimmed headers first, deficit round robin
   for [wrr].  Six 1500-byte packets, entities alternating 0/1. *)
let test_qdisc_sentinel_table () =
  let entity p = p.Packet.entity in
  let enqueued = ref 0 in
  let rng = Engine.Rng.create 5 in
  let fifo_order = [ 0; 1; 2; 3; 4; 5 ] in
  let table =
    [ ("fifo", Qdisc.fifo ~cap_pkts:16 (), fifo_order);
      ("ecn", Qdisc.ecn ~cap_pkts:16 ~mark_threshold:2 (), fifo_order);
      ("red", Qdisc.red ~rng ~cap_pkts:16 ~min_th:2 ~max_th:8 (), fifo_order);
      (* Four fill the data queue; 4 and 5 are trimmed and served first. *)
      ("trimming", Qdisc.trimming ~cap_pkts:4 (),
       [ 4; 5; 0; 1; 2; 3 ]);
      (* Quantum 1514 against 1500-byte packets: class 1 earns two
         packets' worth per visit, class 0 one. *)
      ("wrr", Qdisc.wrr ~classify:entity ~weights:[| 1; 2 |] ~cap_pkts:16 (),
       [ 0; 1; 3; 2; 5; 4 ]);
      ("fair_mark",
       Qdisc.fair_mark ~classify:entity ~cap_pkts:16 ~mark_threshold:2 (),
       fifo_order);
      ("with_hooks",
       Qdisc.with_hooks ~on_enqueue:(fun _ -> incr enqueued)
         (Qdisc.fifo ~cap_pkts:16 ()),
       fifo_order) ]
  in
  List.iter
    (fun (name, q, order) ->
      let is_none () = q.Qdisc.dequeue () == Packet.none in
      checkb (name ^ ": empty is none") true (is_none ());
      let pkts = Array.init 6 (fun i -> pkt ~entity:(i land 1) ()) in
      Array.iter
        (fun p -> checkb (name ^ ": accepted") true (q.Qdisc.enqueue p))
        pkts;
      List.iter
        (fun i ->
          checkb
            (Printf.sprintf "%s: packet %d next" name i)
            true
            (q.Qdisc.dequeue () == pkts.(i)))
        order;
      checkb (name ^ ": drained is none") true (is_none ());
      checki (name ^ ": no packets left") 0 (q.Qdisc.pkt_length ());
      checki (name ^ ": no bytes left") 0 (q.Qdisc.byte_length ()))
    table;
  checki "on_enqueue fires per accepted packet" 6 !enqueued

(* ------------------------------- Link ------------------------------ *)

(* Queued, the sentinel would read as an empty queue with packets
   behind it, so the link refuses it before counting or queueing. *)
let test_link_refuses_sentinel () =
  let sim = Engine.Sim.create () in
  let link =
    Link.create sim ~name:"l" ~rate:(Engine.Time.gbps 100) ~delay:0 ()
  in
  Link.set_dst link ignore;
  Alcotest.check_raises "Packet.none refused"
    (Invalid_argument "Link.send: Packet.none") (fun () ->
      Link.send link Packet.none);
  checki "not counted as sent" 0 (Link.sends link);
  checki "nothing queued" 0 (Link.queued_pkts link)

let test_link_serialization_and_delay () =
  let sim = Engine.Sim.create () in
  let link =
    Link.create sim ~name:"l" ~rate:(Engine.Time.gbps 100)
      ~delay:(Engine.Time.us 1) ()
  in
  let arrivals = ref [] in
  Link.set_dst link (fun p -> arrivals := (Engine.Sim.now sim, p) :: !arrivals);
  Link.send link (pkt ());
  Link.send link (pkt ());
  Engine.Sim.run sim;
  match List.rev !arrivals with
  | [ (t1, _); (t2, _) ] ->
    (* 1500B @100G = 120ns serialization; delay 1us. *)
    checki "first arrival" 1120 t1;
    checki "second arrival spaced by tx time" 1240 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_link_drops_when_queue_full () =
  let sim = Engine.Sim.create () in
  let link =
    Link.create sim ~name:"l" ~rate:(Engine.Time.mbps 1)
      ~delay:(Engine.Time.us 1)
      ~qdisc:(Qdisc.fifo ~cap_pkts:2 ())
      ()
  in
  let n = ref 0 in
  Link.set_dst link (fun _ -> incr n);
  for _ = 1 to 10 do
    Link.send link (pkt ())
  done;
  Engine.Sim.run sim;
  (* One in flight + two queued. *)
  checki "delivered" 3 !n;
  checki "drops" 7 ((Link.qdisc link).Qdisc.drops ())

let test_link_utilization_accounting () =
  let sim = Engine.Sim.create () in
  let link =
    Link.create sim ~name:"l" ~rate:(Engine.Time.gbps 10) ~delay:0 ()
  in
  Link.set_dst link (fun _ -> ());
  for _ = 1 to 100 do
    Link.send link (pkt ())
  done;
  Engine.Sim.run sim;
  checki "all bytes sent" 150_000 (Link.bytes_sent link);
  checkb "not busy at end" false (Link.busy link)

let test_link_utilization_zero_window () =
  let sim = Engine.Sim.create () in
  let link =
    Link.create sim ~name:"l" ~rate:(Engine.Time.gbps 10) ~delay:0 ()
  in
  Link.set_dst link (fun _ -> ());
  Link.send link (pkt ());
  Engine.Sim.run sim;
  let checkf = Alcotest.(check (float 0.0)) in
  (* A zero-width (or future) window has no elapsed time to average
     over; the meter must report idle rather than divide by zero. *)
  checkf "since = now" 0.0 (Link.utilization link ~since:(Engine.Sim.now sim));
  checkf "since in future" 0.0
    (Link.utilization link ~since:(Engine.Sim.now sim + Engine.Time.us 1));
  checkb "busy over real window" true (Link.utilization link ~since:0 > 0.0)

(* ------------------------------ Switch ----------------------------- *)

let build_switch_pair () =
  let sim = Engine.Sim.create () in
  let sw = Switch.create sim ~name:"sw" () in
  let out =
    Link.create sim ~name:"out" ~rate:(Engine.Time.gbps 100) ~delay:0 ()
  in
  let got = ref [] in
  Link.set_dst out (fun p -> got := p :: !got);
  let port = Switch.add_port sw out in
  (sim, sw, port, got)

let test_switch_forwards () =
  let sim, sw, port, got = build_switch_pair () in
  Switch.set_forward sw (fun _ -> Switch.Forward port);
  Switch.receive sw (pkt ());
  Engine.Sim.run sim;
  checki "forwarded" 1 (List.length !got);
  checki "counter" 1 (Switch.forwarded sw)

let test_switch_drop_action () =
  let sim, sw, _, got = build_switch_pair () in
  Switch.set_forward sw (fun _ -> Switch.Drop);
  Switch.receive sw (pkt ());
  Engine.Sim.run sim;
  checki "nothing out" 0 (List.length !got);
  checki "dropped" 1 (Switch.dropped sw)

let test_switch_hook_absorbs () =
  let sim, sw, port, got = build_switch_pair () in
  Switch.set_forward sw (fun _ -> Switch.Forward port);
  Switch.add_ingress_hook sw (fun p ->
      if p.Packet.size < 1000 then Switch.Absorb else Switch.Continue);
  Switch.receive sw (pkt ~size:64 ());
  Switch.receive sw (pkt ~size:1500 ());
  Engine.Sim.run sim;
  checki "one absorbed" 1 (Switch.consumed sw);
  checki "one through" 1 (List.length !got)

let test_switch_hook_order () =
  let sim, sw, port, _ = build_switch_pair () in
  Switch.set_forward sw (fun _ -> Switch.Forward port);
  let order = ref [] in
  Switch.add_ingress_hook sw (fun _ ->
      order := 1 :: !order;
      Switch.Continue);
  Switch.add_ingress_hook sw (fun _ ->
      order := 2 :: !order;
      Switch.Continue);
  Switch.receive sw (pkt ());
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "registration order" [ 1; 2 ] (List.rev !order)

(* [Switch.forward] shares one block per port below the table's size
   and still answers a correct [Forward] past it. *)
let test_switch_forward_shared () =
  List.iter
    (fun i ->
      checkb (Printf.sprintf "forward %d shared" i) true
        (Switch.forward i == Switch.forward i);
      checkb (Printf.sprintf "forward %d value" i) true
        (Switch.forward i = Switch.Forward i))
    [ 0; 1; 7; 255 ];
  List.iter
    (fun i ->
      checkb (Printf.sprintf "forward %d value" i) true
        (Switch.forward i = Switch.Forward i))
    [ 256; 1000; 65_536 ]

(* One hop of a pooled packet allocates nothing: host -> link -> switch
   (an ECMP verdict over two ports) -> link -> sink, 10 000 packets
   after a warm-up that fills the pool and sizes every ring and the
   event heap. *)
let test_pooled_hop_allocates_nothing () =
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let rate = Engine.Time.gbps 100 and delay = Engine.Time.us 1 in
  let link name = Link.create sim ~name ~rate ~delay ~pool () in
  let up = link "up" and out0 = link "out0" and out1 = link "out1" in
  let sw = Switch.create sim ~name:"sw" ~pool () in
  let routes = Routing.create () in
  Routing.add routes 1 (Switch.add_port sw out0);
  Routing.add routes 1 (Switch.add_port sw out1);
  Switch.set_forward sw (Routing.ecmp routes);
  Link.set_dst up (Switch.receive sw);
  let delivered = ref 0 in
  let sink p =
    incr delivered;
    Packet.release pool p
  in
  Link.set_dst out0 sink;
  Link.set_dst out1 sink;
  let sent = ref 0 and quota = ref 0 in
  let source () =
    let p = Packet.recycle pool ~src:0 ~dst:1 ~size:1500 () in
    p.Packet.flow_hash <- !sent;
    Link.send up p;
    incr sent;
    !sent < !quota
  in
  let gap = Engine.Time.tx_time ~bytes:1500 ~rate in
  let burst n =
    quota := !sent + n;
    Engine.Sim.periodic sim ~interval:gap source;
    let before = Gc.minor_words () in
    Engine.Sim.run sim;
    Gc.minor_words () -. before
  in
  ignore (burst 1_000);
  let words = burst 10_000 in
  checki "every packet delivered" 11_000 !delivered;
  checkb "both ports used" true
    (Link.delivered_pkts out0 > 0 && Link.delivered_pkts out1 > 0);
  Alcotest.(check (float 0.0)) "no minor words" 0.0 words

(* ------------------------------ Routing ---------------------------- *)

let test_routing_static_and_unknown () =
  let r = Routing.create () in
  Routing.add r 5 2;
  (match Routing.static r (pkt ~dst:5 ()) with
  | Switch.Forward p -> checki "static port" 2 p
  | _ -> Alcotest.fail "expected forward");
  match Routing.static r (pkt ~dst:9 ()) with
  | Switch.Drop -> ()
  | _ -> Alcotest.fail "unknown dst must drop"

let test_routing_ecmp_sticky_per_flow () =
  let r = Routing.create () in
  Routing.add r 5 0;
  Routing.add r 5 1;
  let port_of hash =
    match Routing.ecmp r (pkt ~dst:5 ~flow_hash:hash ()) with
    | Switch.Forward p -> p
    | _ -> -1
  in
  checki "same flow same port" (port_of 42) (port_of 42);
  (* Different hashes cover both ports eventually. *)
  let seen = List.sort_uniq compare (List.init 32 port_of) in
  checki "uses both ports" 2 (List.length seen)

let test_routing_spray_round_robins () =
  let r = Routing.create () in
  Routing.add r 5 0;
  Routing.add r 5 1;
  let ports =
    List.init 4 (fun _ ->
        match Routing.spray r (pkt ~dst:5 ()) with
        | Switch.Forward p -> p
        | _ -> -1)
  in
  Alcotest.(check (list int)) "alternates" [ 0; 1; 0; 1 ] ports

let test_routing_selectors_unknown_and_single () =
  let r = Routing.create () in
  Routing.add r 5 3;
  (* Unknown destination drops under every selector, not just static. *)
  List.iter
    (fun (label, sel) ->
      match sel r (pkt ~dst:9 ()) with
      | Switch.Drop -> ()
      | _ -> Alcotest.fail (label ^ ": unknown dst must drop"))
    [ ("static", Routing.static); ("ecmp", Routing.ecmp);
      ("spray", Routing.spray) ];
  (* A single registered port is the unanimous choice regardless of
     flow hash or spray position. *)
  List.iter
    (fun (label, sel) ->
      match sel r (pkt ~dst:5 ~flow_hash:7 ()) with
      | Switch.Forward p -> checki (label ^ ": single port") 3 p
      | _ -> Alcotest.fail (label ^ ": expected forward"))
    [ ("static", Routing.static); ("ecmp", Routing.ecmp);
      ("spray", Routing.spray) ]

let test_routing_remove_restore_port () =
  let r = Routing.create () in
  Routing.add r 5 0;
  Routing.add r 5 1;
  Routing.remove_port r 0;
  Routing.remove_port r 0 (* idempotent *);
  checkb "removed flagged" true (Routing.port_removed r 0);
  checki "effective shrinks" 1 (Array.length (Routing.ports_for r 5));
  checki "registrations intact" 2
    (Array.length (Routing.registered_ports_for r 5));
  (* Every selector steers around the withdrawn port. *)
  List.iter
    (fun (label, sel) ->
      for hash = 0 to 7 do
        match sel r (pkt ~dst:5 ~flow_hash:hash ()) with
        | Switch.Forward p -> checki (label ^ ": avoids removed") 1 p
        | _ -> Alcotest.fail (label ^ ": expected forward")
      done)
    [ ("static", Routing.static); ("ecmp", Routing.ecmp);
      ("spray", Routing.spray) ];
  (* Withdrawing the last port leaves nothing to forward on. *)
  Routing.remove_port r 1;
  (match Routing.static r (pkt ~dst:5 ()) with
  | Switch.Drop -> ()
  | _ -> Alcotest.fail "all ports removed must drop");
  Routing.restore_port r 0;
  Routing.restore_port r 1;
  checkb "removal cleared" false (Routing.port_removed r 0);
  checki "effective restored" 2 (Array.length (Routing.ports_for r 5));
  match Routing.static r (pkt ~dst:5 ()) with
  | Switch.Forward p -> checki "static back to first port" 0 p
  | _ -> Alcotest.fail "expected forward after restore"

(* qcheck: the dense address-indexed table is observationally
   equivalent to the naive hashtable model it replaced — same live
   port sets, same ecmp picks (salt 0 = raw flow_hash mod n), same
   spray sequences — under arbitrary add/remove/restore interleavings. *)
let prop_routing_matches_model =
  let apply_model tbl removed (op, addr, port) =
    match op with
    | 0 ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl addr) in
      Hashtbl.replace tbl addr (prev @ [ port ])
    | 1 -> removed.(port) <- true
    | _ -> removed.(port) <- false
  in
  let apply_real r (op, addr, port) =
    match op with
    | 0 -> Routing.add r addr port
    | 1 -> Routing.remove_port r port
    | _ -> Routing.restore_port r port
  in
  QCheck.Test.make ~name:"dense routing matches hashtable model" ~count:300
    QCheck.(
      list_of_size
        Gen.(1 -- 40)
        (triple (int_range 0 2) (int_range 0 9) (int_range 0 3)))
    (fun ops ->
      let r = Routing.create () in
      let tbl = Hashtbl.create 16 in
      let removed = Array.make 4 false in
      List.iter
        (fun op ->
          apply_real r op;
          apply_model tbl removed op)
        ops;
      let ok = ref true in
      for dst = 0 to 9 do
        let live =
          Option.value ~default:[] (Hashtbl.find_opt tbl dst)
          |> List.filter (fun p -> not removed.(p))
        in
        let n = List.length live in
        if Array.to_list (Routing.ports_for r dst) <> live then ok := false;
        (* ecmp: salt 0 must reproduce raw [flow_hash mod n]. *)
        for hash = 0 to 6 do
          let expect =
            if n = 0 then Switch.Drop
            else Switch.Forward (List.nth live (hash mod n))
          in
          if Routing.ecmp r (pkt ~dst ~flow_hash:hash ()) <> expect then
            ok := false
        done;
        (* spray: a per-destination counter walking the live set. *)
        for turn = 0 to (2 * n) - 1 do
          if
            Routing.spray r (pkt ~dst ())
            <> Switch.Forward (List.nth live (turn mod n))
          then ok := false
        done
      done;
      !ok)

let test_routing_add_range_shares_entry () =
  let r = Routing.create () in
  Routing.add_range r ~lo:10 ~hi:19 1;
  Routing.add_range r ~lo:10 ~hi:19 2 (* identical interval: multipath *);
  Alcotest.(check (list int))
    "both ports at lo" [ 1; 2 ]
    (Array.to_list (Routing.ports_for r 10));
  Alcotest.(check (list int))
    "both ports at hi" [ 1; 2 ]
    (Array.to_list (Routing.ports_for r 19));
  checki "outside range unknown" 0 (Array.length (Routing.ports_for r 20));
  (* One shared spray counter across the whole interval. *)
  (match Routing.spray r (pkt ~dst:10 ()) with
  | Switch.Forward p -> checki "spray first" 1 p
  | _ -> Alcotest.fail "expected forward");
  (match Routing.spray r (pkt ~dst:15 ()) with
  | Switch.Forward p -> checki "spray shared counter advanced" 2 p
  | _ -> Alcotest.fail "expected forward");
  (* Overlaps are build bugs and refuse loudly. *)
  (match Routing.add_range r ~lo:15 ~hi:25 3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overlapping range must raise");
  (match Routing.add r 12 3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "per-address add inside a range must raise");
  (* Removals apply to interval entries like any other. *)
  Routing.remove_port r 1;
  Alcotest.(check (list int))
    "removal filters interval" [ 2 ]
    (Array.to_list (Routing.ports_for r 13));
  Routing.restore_port r 1;
  Alcotest.(check (list int))
    "restore refills interval" [ 1; 2 ]
    (Array.to_list (Routing.ports_for r 13))

let test_routing_ecmp_salt_decorrelates () =
  (* Same registrations, same flows: a salted table must not mirror
     the unsalted pick on every flow (that correlation is exactly what
     collapses fat-tree path diversity). *)
  let plain = Routing.create () in
  let salted = Routing.create ~salt:(Topology.fabric_salt 1) () in
  List.iter
    (fun r ->
      Routing.add r 5 0;
      Routing.add r 5 1)
    [ plain; salted ];
  let diverged = ref false in
  for hash = 1 to 64 do
    let p = pkt ~dst:5 ~flow_hash:hash () in
    if Routing.ecmp_port plain p <> Routing.ecmp_port salted p then
      diverged := true;
    (* Still deterministic per flow. *)
    checki "salted sticky" (Routing.ecmp_port salted p)
      (Routing.ecmp_port salted p)
  done;
  checkb "salted table diverges from raw mod" true !diverged

(* ----------------------------- Topology ---------------------------- *)

let test_host_pair_roundtrip () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 1) ());
  let got = ref 0 in
  Node.set_handler b (fun _ -> incr got);
  Node.send a (pkt ~src:(Node.addr a) ~dst:(Node.addr b) ());
  Engine.Sim.run sim;
  checki "delivered" 1 !got

let test_dumbbell_connectivity () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let db =
    Topology.dumbbell topo ~n:2 ~edge_rate:(Engine.Time.gbps 100)
      ~bottleneck_rate:(Engine.Time.gbps 100) ~delay:(Engine.Time.us 1) ()
  in
  let got = Array.make 2 0 in
  Array.iteri
    (fun i r -> Node.set_handler r (fun _ -> got.(i) <- got.(i) + 1))
    db.Topology.db_receivers;
  Array.iteri
    (fun i s ->
      Node.send s
        (pkt ~src:(Node.addr s)
           ~dst:(Node.addr db.Topology.db_receivers.(i))
           ()))
    db.Topology.db_senders;
  Engine.Sim.run sim;
  checki "rcv0" 1 got.(0);
  checki "rcv1" 1 got.(1)

let test_dumbbell_reverse_path () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let db =
    Topology.dumbbell topo ~n:1 ~edge_rate:(Engine.Time.gbps 100)
      ~bottleneck_rate:(Engine.Time.gbps 100) ~delay:(Engine.Time.us 1) ()
  in
  let got = ref 0 in
  Node.set_handler db.Topology.db_senders.(0) (fun _ -> incr got);
  Node.send
    db.Topology.db_receivers.(0)
    (pkt
       ~src:(Node.addr db.Topology.db_receivers.(0))
       ~dst:(Node.addr db.Topology.db_senders.(0))
       ());
  Engine.Sim.run sim;
  checki "ack path works" 1 !got

let test_two_path_default_and_alternate () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let tp =
    Topology.two_path topo ~rate_a:(Engine.Time.gbps 100)
      ~rate_b:(Engine.Time.gbps 10) ~delay_a:(Engine.Time.us 1)
      ~delay_b:(Engine.Time.us 1) ~edge_rate:(Engine.Time.gbps 100) ()
  in
  let got = ref 0 in
  Node.set_handler tp.Topology.tp_dst (fun _ -> incr got);
  let send () =
    Node.send tp.Topology.tp_src
      (pkt
         ~src:(Node.addr tp.Topology.tp_src)
         ~dst:(Node.addr tp.Topology.tp_dst)
         ())
  in
  send ();
  Engine.Sim.run sim;
  checki "via path A" 1 !got;
  checkb "path A carried bytes" true (Link.bytes_sent tp.Topology.tp_link_a > 0);
  (* Redirect to path B. *)
  Switch.set_forward tp.Topology.tp_ingress (fun _ ->
      Switch.Forward tp.Topology.tp_port_b);
  send ();
  Engine.Sim.run sim;
  checki "via path B" 2 !got;
  checkb "path B carried bytes" true (Link.bytes_sent tp.Topology.tp_link_b > 0)

let test_proxy_chain_wiring () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let ch =
    Topology.proxy_chain topo ~front_rate:(Engine.Time.gbps 100)
      ~back_rate:(Engine.Time.gbps 40) ~delay:(Engine.Time.us 1) ()
  in
  let at_proxy = ref 0 and at_server = ref 0 in
  Node.set_handler ch.Topology.ch_proxy (fun _ -> incr at_proxy);
  Node.set_handler ch.Topology.ch_server (fun _ -> incr at_server);
  Node.send ch.Topology.ch_client
    (pkt
       ~src:(Node.addr ch.Topology.ch_client)
       ~dst:(Node.addr ch.Topology.ch_proxy)
       ());
  Node.send ch.Topology.ch_proxy
    (pkt
       ~src:(Node.addr ch.Topology.ch_proxy)
       ~dst:(Node.addr ch.Topology.ch_server)
       ());
  Engine.Sim.run sim;
  checki "client->proxy" 1 !at_proxy;
  checki "proxy->server" 1 !at_server

let test_star_connectivity () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let st =
    Topology.star topo ~n:3 ~rate:(Engine.Time.gbps 100)
      ~delay:(Engine.Time.us 1) ()
  in
  let got = ref 0 in
  Node.set_handler st.Topology.st_server (fun _ -> incr got);
  Array.iter
    (fun c ->
      Node.send c
        (pkt ~src:(Node.addr c) ~dst:(Node.addr st.Topology.st_server) ()))
    st.Topology.st_clients;
  Engine.Sim.run sim;
  checki "all clients reach server" 3 !got

let test_leaf_spine_connectivity () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let ls =
    Topology.leaf_spine topo ~leaves:3 ~spines:2 ~hosts_per_leaf:2
      ~host_rate:(Engine.Time.gbps 10) ~fabric_rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 1) ()
  in
  let got = Array.make 6 0 in
  Array.iteri
    (fun l row ->
      Array.iteri
        (fun i h ->
          Node.set_handler h (fun _ ->
              got.((l * 2) + i) <- got.((l * 2) + i) + 1))
        row)
    ls.Topology.ls_hosts;
  (* Every host sends one packet to every other host. *)
  Array.iter
    (fun row ->
      Array.iter
        (fun src ->
          Array.iter
            (fun row' ->
              Array.iter
                (fun dst ->
                  if Node.addr src <> Node.addr dst then
                    Node.send src
                      (pkt ~src:(Node.addr src) ~dst:(Node.addr dst) ()))
                row')
            ls.Topology.ls_hosts)
        row)
    ls.Topology.ls_hosts;
  Engine.Sim.run sim;
  Array.iteri (fun i n -> checki (Printf.sprintf "host %d" i) 5 n) got

let test_leaf_spine_ecmp_spreads_uplinks () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let ls =
    Topology.leaf_spine topo ~leaves:2 ~spines:2 ~hosts_per_leaf:2
      ~host_rate:(Engine.Time.gbps 10) ~fabric_rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 1) ()
  in
  let src = ls.Topology.ls_hosts.(0).(0) in
  let dst = ls.Topology.ls_hosts.(1).(0) in
  Node.set_handler dst (fun _ -> ());
  (* Many flows (distinct hashes) from one host: both uplinks used. *)
  for flow = 1 to 64 do
    Node.send src
      (pkt ~src:(Node.addr src) ~dst:(Node.addr dst) ~flow_hash:(flow * 7919)
         ())
  done;
  Engine.Sim.run sim;
  Array.iter
    (fun link ->
      checkb
        (Printf.sprintf "uplink %s used" (Link.name link))
        true
        (Link.bytes_sent link > 0))
    ls.Topology.ls_uplinks.(0)

let mk_fat_tree ?(k = 4) () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let ft =
    Topology.fat_tree topo ~k ~host_rate:(Engine.Time.gbps 10)
      ~fabric_rate:(Engine.Time.gbps 10) ~delay:(Engine.Time.us 1) ()
  in
  (sim, ft)

let test_fat_tree_structure () =
  let _, ft = mk_fat_tree () in
  checki "hosts = k^3/4" 16 (Array.length ft.Topology.ft_hosts);
  checki "edges = k^2/2" 8 (Array.length ft.Topology.ft_edges);
  checki "aggs = k^2/2" 8 (Array.length ft.Topology.ft_aggs);
  checki "cores = (k/2)^2" 4 (Array.length ft.Topology.ft_cores);
  (* Addresses are dense and pod-major from ft_base. *)
  Array.iteri
    (fun i h -> checki "dense addressing" (ft.Topology.ft_base + i) (Node.addr h))
    ft.Topology.ft_hosts;
  match Topology.fat_tree (Topology.create psim) ~k:3
          ~host_rate:(Engine.Time.gbps 1) ~fabric_rate:(Engine.Time.gbps 1)
          ~delay:(Engine.Time.us 1) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "odd k must raise"

let test_fat_tree_connectivity () =
  let sim, ft = mk_fat_tree () in
  let n = Array.length ft.Topology.ft_hosts in
  let got = Array.make n 0 in
  Array.iteri
    (fun i h -> Node.set_handler h (fun _ -> got.(i) <- got.(i) + 1))
    ft.Topology.ft_hosts;
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if Node.addr src <> Node.addr dst then
            Node.send src (pkt ~src:(Node.addr src) ~dst:(Node.addr dst) ()))
        ft.Topology.ft_hosts)
    ft.Topology.ft_hosts;
  Engine.Sim.run sim;
  Array.iteri
    (fun i c -> checki (Printf.sprintf "host %d full mesh" i) (n - 1) c)
    got

let test_fat_tree_hop_counts () =
  (* Switch traversals per delivery: 1 same-edge, 3 same-pod, 5
     inter-pod — the three-tier path-length invariant. *)
  let sim, ft = mk_fat_tree () in
  Array.iter (fun h -> Node.set_handler h (fun _ -> ())) ft.Topology.ft_hosts;
  let all_switches =
    Array.concat
      [ ft.Topology.ft_edges; ft.Topology.ft_aggs; ft.Topology.ft_cores ]
  in
  let traversals () =
    Array.fold_left (fun a sw -> a + Switch.received sw) 0 all_switches
  in
  let hops src dst =
    let before = traversals () in
    Node.send
      ft.Topology.ft_hosts.(src)
      (pkt
         ~src:(Node.addr ft.Topology.ft_hosts.(src))
         ~dst:(Node.addr ft.Topology.ft_hosts.(dst))
         ());
    Engine.Sim.run sim;
    traversals () - before
  in
  checki "same edge: 1 switch" 1 (hops 0 1);
  checki "same pod: edge-agg-edge" 3 (hops 0 2);
  checki "inter-pod: edge-agg-core-agg-edge" 5 (hops 0 15)

let test_fat_tree_ecmp_uses_all_cores () =
  (* (k/2)^2 distinct inter-pod paths, one per core: enough flows from
     one host pair must light up every core — the decorrelated-salt
     guarantee (raw per-hop [flow_hash mod n] collapses this to k/2). *)
  let sim, ft = mk_fat_tree () in
  Array.iter (fun h -> Node.set_handler h (fun _ -> ())) ft.Topology.ft_hosts;
  let src = ft.Topology.ft_hosts.(0) and dst = ft.Topology.ft_hosts.(15) in
  for flow = 1 to 256 do
    Node.send src
      (pkt ~src:(Node.addr src) ~dst:(Node.addr dst) ~flow_hash:(flow * 7919)
         ())
  done;
  Engine.Sim.run sim;
  Array.iteri
    (fun c core ->
      checkb
        (Printf.sprintf "core %d on some path" c)
        true
        (Switch.received core > 0))
    ft.Topology.ft_cores

let test_clos_connectivity () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let ft =
    Topology.clos topo ~pods:2 ~leaves:2 ~spines:2 ~supers:2
      ~hosts_per_leaf:2 ~host_rate:(Engine.Time.gbps 10)
      ~fabric_rate:(Engine.Time.gbps 10) ~delay:(Engine.Time.us 1) ()
  in
  let n = Array.length ft.Topology.ft_hosts in
  checki "hosts = pods*leaves*hpl" 8 n;
  let got = Array.make n 0 in
  Array.iteri
    (fun i h -> Node.set_handler h (fun _ -> got.(i) <- got.(i) + 1))
    ft.Topology.ft_hosts;
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if Node.addr src <> Node.addr dst then
            Node.send src (pkt ~src:(Node.addr src) ~dst:(Node.addr dst) ()))
        ft.Topology.ft_hosts)
    ft.Topology.ft_hosts;
  Engine.Sim.run sim;
  Array.iteri
    (fun i c -> checki (Printf.sprintf "host %d full mesh" i) (n - 1) c)
    got

let mk_clos topo ~pods ~leaves ~spines ~supers ~hosts_per_leaf =
  let g = Engine.Time.gbps 10 in
  Topology.clos topo ~pods ~leaves ~spines ~supers ~hosts_per_leaf
    ~host_rate:g ~fabric_rate:g ~delay:(Engine.Time.us 1) ()

(* The switches [sw]'s ports lead to, by name ("a->b" gives "b"). *)
let port_peers sw =
  List.init (Switch.port_count sw) (fun i ->
      let name = Link.name (Switch.port sw i) in
      let at = String.index name '>' + 1 in
      String.sub name at (String.length name - at))

(* The plane rule: with m = supers / spines, agg [a] of every pod
   meshes with cores [a*m .. a*m + m - 1] and nothing else above it, so
   every core has one port per pod; one pod builds no core tier. *)
let test_clos_plane_rule () =
  let pods = 3 and leaves = 2 and spines = 2 and supers = 6 in
  let m = supers / spines in
  let ft =
    mk_clos (Topology.create psim) ~pods ~leaves ~spines ~supers
      ~hosts_per_leaf:1
  in
  checki "cores" supers (Array.length ft.Topology.ft_cores);
  Array.iteri
    (fun ai agg ->
      let a = ai mod spines in
      let cores =
        List.filter (String.starts_with ~prefix:"core") (port_peers agg)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "agg %d cores" ai)
        (List.init m (fun j -> Printf.sprintf "core%d" ((a * m) + j)))
        cores)
    ft.Topology.ft_aggs;
  Array.iteri
    (fun c core ->
      Alcotest.(check (list string))
        (Printf.sprintf "core %d one port per pod" c)
        (List.init pods (fun p -> Printf.sprintf "agg%d_%d" p (c / m)))
        (port_peers core))
    ft.Topology.ft_cores;
  let one =
    mk_clos (Topology.create psim) ~pods:1 ~leaves ~spines ~supers
      ~hosts_per_leaf:1
  in
  checki "one pod, no core" 0 (Array.length one.Topology.ft_cores);
  Array.iter
    (fun agg -> checki "one-pod agg ports" leaves (Switch.port_count agg))
    one.Topology.ft_aggs

let test_builders_refuse_bad_sizes () =
  let topo () = Topology.create (Engine.Sim.create ()) in
  let clos (pods, leaves, spines, supers, hosts_per_leaf) () =
    ignore (mk_clos (topo ()) ~pods ~leaves ~spines ~supers ~hosts_per_leaf)
  in
  let leaf_spine (leaves, spines, hosts_per_leaf) () =
    let g = Engine.Time.gbps 10 in
    ignore
      (Topology.leaf_spine (topo ()) ~leaves ~spines ~hosts_per_leaf
         ~host_rate:g ~fabric_rate:g ~delay:(Engine.Time.us 1) ())
  in
  List.iter
    (fun (what, build) ->
      match build () with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s must raise" what)
    [ ("clos no pod", clos (0, 2, 2, 4, 1));
      ("clos no leaf", clos (2, 0, 2, 4, 1));
      ("clos no spine", clos (2, 2, 0, 4, 1));
      ("clos no host", clos (2, 2, 2, 4, 0));
      ("clos multi-pod without supers", clos (2, 2, 2, 0, 1));
      ("clos negative supers", clos (2, 2, 2, -2, 1));
      ("clos supers not a multiple of spines", clos (2, 2, 2, 3, 1));
      ("leaf_spine no leaf", leaf_spine (0, 2, 1));
      ("leaf_spine no spine", leaf_spine (2, 0, 1));
      ("leaf_spine no host", leaf_spine (2, 2, 0)) ]

(* ---------------------------- Partitioned -------------------------- *)

(* Every prebuilt network, built on a topology. *)
let prebuilt =
  let g = Engine.Time.gbps 10 and d = Engine.Time.us 1 in
  [ ( "dumbbell",
      fun topo ->
        ignore
          (Topology.dumbbell topo ~n:2 ~edge_rate:g ~bottleneck_rate:g
             ~delay:d ()) );
    ( "two_path",
      fun topo ->
        ignore
          (Topology.two_path topo ~rate_a:g ~rate_b:g ~delay_a:d
             ~delay_b:(2 * d) ~edge_rate:g ()) );
    ( "proxy_chain",
      fun topo ->
        ignore
          (Topology.proxy_chain topo ~front_rate:g ~back_rate:g ~delay:d ()) );
    ( "star",
      fun topo -> ignore (Topology.star topo ~n:3 ~rate:g ~delay:d ()) );
    ( "leaf_spine",
      fun topo ->
        ignore
          (Topology.leaf_spine topo ~leaves:3 ~spines:2 ~hosts_per_leaf:2
             ~host_rate:g ~fabric_rate:g ~delay:d ()) );
    ( "fat_tree",
      fun topo ->
        ignore
          (Topology.fat_tree topo ~k:4 ~host_rate:g ~fabric_rate:g ~delay:d ())
    );
    ( "clos",
      fun topo ->
        ignore
          (Topology.clos topo ~pods:2 ~leaves:2 ~spines:2 ~supers:2
             ~hosts_per_leaf:2 ~host_rate:g ~fabric_rate:g ~delay:d ()) ) ]

(* Build a network on [topo], then every host sends one packet to every
   other host; returns what each host and switch received. *)
let all_pairs build topo run =
  build topo;
  let hosts = Topology.hosts topo in
  let got = Array.make (Array.length hosts) 0 in
  Array.iteri (fun i h -> Node.set_handler h (fun _ -> got.(i) <- got.(i) + 1)) hosts;
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src != dst then
            Node.send src (pkt ~src:(Node.addr src) ~dst:(Node.addr dst) ()))
        hosts)
    hosts;
  run ();
  ( Array.to_list got,
    Array.to_list (Array.map Switch.received (Topology.switches topo)) )

let test_partitioned_builds_match_single_sim () =
  (* One builder, any cut: each prebuilt network on a 2- and a
     3-partition world delivers exactly what its single-sim build
     delivers, at jobs 1 and 2. *)
  List.iter
    (fun (name, build) ->
      let sim = Engine.Sim.create () in
      let single =
        all_pairs build (Topology.create sim) (fun () -> Engine.Sim.run sim)
      in
      List.iter
        (fun (nparts, jobs) ->
          let world = Partition.create ~nparts () in
          let got =
            all_pairs build (Partition.topology world) (fun () ->
                Partition.run ~jobs ~until:(Engine.Time.ms 1) world)
          in
          Alcotest.(check (pair (list int) (list int)))
            (Printf.sprintf "%s: %d partitions, jobs=%d" name nparts jobs)
            single got)
        [ (2, 1); (2, 2); (3, 1); (3, 2) ])
    prebuilt

let test_topology_lists_every_device () =
  (* Each prebuilt network, on 1, 2 and 3 partitions, lists every
     device once: hosts in address order, every host uplink and switch
     port among the links (conduits too), each link in one of the
     world's simulators. *)
  let once at what devices =
    Array.iteri
      (fun i x ->
        Array.iteri
          (fun j y ->
            if i < j && x == y then
              Alcotest.failf "%s: %s %d listed twice" at what i)
          devices)
      devices
  in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun nparts ->
          let world = Partition.create ~nparts () in
          let topo = Partition.topology world in
          build topo;
          let at = Printf.sprintf "%s, %d partitions" name nparts in
          let hosts = Topology.hosts topo
          and switches = Topology.switches topo
          and links = Topology.links topo in
          once at "host" hosts;
          once at "switch" switches;
          once at "link" links;
          Array.iteri
            (fun i h -> checki (at ^ ": host address") i (Node.addr h))
            hosts;
          let listed l = Array.exists (fun l' -> l' == l) links in
          Array.iter
            (fun h ->
              checkb (at ^ ": uplink listed") true (listed (Node.uplink h)))
            hosts;
          Array.iter
            (fun sw ->
              for i = 0 to Switch.port_count sw - 1 do
                checkb (at ^ ": port listed") true (listed (Switch.port sw i))
              done)
            switches;
          let sims = List.init nparts (Partition.sim world) in
          Array.iter
            (fun l ->
              checkb (at ^ ": link in the world") true
                (List.exists (fun s -> s == Link.sim l) sims))
            links)
        [ 1; 2; 3 ])
    prebuilt;
  let g = Engine.Time.gbps 10 in
  let pls =
    Partition.leaf_spine ~leaves:3 ~spines:2 ~hosts_per_leaf:2 ~host_rate:g
      ~fabric_rate:g ~delay:(Engine.Time.us 1) ()
  in
  let links = Topology.links (Partition.topology pls.Partition.pls_world) in
  checki "pls_links count" (Array.length links)
    (Array.length pls.Partition.pls_links);
  Array.iteri
    (fun i l ->
      checkb (Printf.sprintf "pls_links.(%d) is Topology.links" i) true
        (pls.Partition.pls_links.(i) == l))
    links

let test_partition_lookahead_is_min_cut_delay () =
  (* The two-path cut crosses path A (3 us), path B (7 us) and the
     reverse link (3 us); the 500 ns edge links stay inside their
     partitions, so the epoch window is 3 us. *)
  let world = Partition.create ~nparts:2 () in
  let tp =
    Topology.two_path (Partition.topology world) ~rate_a:(Engine.Time.gbps 10)
      ~rate_b:(Engine.Time.gbps 10) ~delay_a:(Engine.Time.us 3)
      ~delay_b:(Engine.Time.us 7) ~edge_rate:(Engine.Time.gbps 10) ()
  in
  checki "lookahead = min conduit delay" (Engine.Time.us 3)
    (Partition.lookahead world);
  checkb "src and dst in different partitions" true
    (Node.sim tp.Topology.tp_src != Node.sim tp.Topology.tp_dst);
  (* A single partition has nothing to cut. *)
  let one = Partition.create ~nparts:1 () in
  ignore
    (Topology.star (Partition.topology one) ~n:2 ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 1) ());
  match Partition.lookahead one with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a one-partition world has no conduit"

let test_partition_equal_time_arrivals_in_creation_order () =
  (* Hosts a (partition 1) and b (partition 0) each send two packets to
     r (partition 2) over identical links, so their arrivals tie
     pairwise.  a's conduit into r is made first, so at each instant
     a's packet goes first although b sits in the lower partition. *)
  List.iter
    (fun jobs ->
      let world = Partition.create ~nparts:3 () in
      let topo = Partition.topology world in
      let a = Topology.host ~part:1 topo "a"
      and b = Topology.host ~part:0 topo "b"
      and r = Topology.host ~part:2 topo "r" in
      let g = Engine.Time.gbps 10 and d = Engine.Time.us 2 in
      ignore (Topology.wire_host_pair topo a r ~rate:g ~delay:d ());
      ignore (Topology.wire_host_pair topo b r ~rate:g ~delay:d ());
      let got = ref [] in
      Node.set_handler r (fun p ->
          got := (p.Packet.src, Engine.Sim.now (Node.sim r)) :: !got);
      List.iter
        (fun h ->
          for _ = 1 to 2 do
            Node.send h
              (Testpkt.raw ~src:(Node.addr h) ~dst:(Node.addr r) (Node.sim h))
          done)
        [ b; a ];
      Partition.run ~jobs ~until:(Engine.Time.us 20) world;
      let t1 = d + Engine.Time.tx_time ~bytes:1500 ~rate:g in
      let t2 = t1 + Engine.Time.tx_time ~bytes:1500 ~rate:g in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "(src, arrival) at jobs=%d" jobs)
        [ (Node.addr a, t1); (Node.addr b, t1); (Node.addr a, t2);
          (Node.addr b, t2) ]
        (List.rev !got))
    [ 1; 2 ]

let test_partition_flits_wait_across_windows () =
  (* Two-path cut with 3 us and 7 us conduits: the window is 3 us, so
     every path-B flit waits out two or three barriers in its inbox
     while more flits queue behind it.  Per path, the packets must
     arrive in FIFO order at exactly the instants of the single-sim
     build, at jobs 1 and 2. *)
  let g = Engine.Time.gbps 10 in
  let run topo go =
    let tp =
      Topology.two_path topo ~rate_a:g ~rate_b:g ~delay_a:(Engine.Time.us 3)
        ~delay_b:(Engine.Time.us 7) ~edge_rate:g ()
    in
    Switch.set_forward tp.Topology.tp_ingress (fun p ->
        Switch.Forward
          (if p.Packet.flow_hash land 1 = 0 then tp.Topology.tp_port_a
           else tp.Topology.tp_port_b));
    let got = ref [] in
    let dst = tp.Topology.tp_dst in
    Node.set_handler dst (fun p ->
        got := (p.Packet.flow_hash, Engine.Sim.now (Node.sim dst)) :: !got);
    let src = tp.Topology.tp_src in
    for i = 0 to 39 do
      Node.send src
        (Testpkt.raw ~flow_hash:i ~src:(Node.addr src) ~dst:(Node.addr dst)
           (Node.sim src))
    done;
    go ();
    let path k = List.filter (fun (h, _) -> h land 1 = k) (List.rev !got) in
    (path 0, path 1)
  in
  let sim = Engine.Sim.create () in
  let ((a, b) as single) =
    run (Topology.create sim) (fun () -> Engine.Sim.run sim)
  in
  checki "every packet on path A" 20 (List.length a);
  checki "every packet on path B" 20 (List.length b);
  List.iter
    (fun (name, l) ->
      checkb (name ^ " FIFO") true
        (List.map fst l = List.sort compare (List.map fst l)))
    [ ("path A", a); ("path B", b) ];
  List.iter
    (fun jobs ->
      let world = Partition.create ~nparts:2 () in
      let got =
        run (Partition.topology world) (fun () ->
            Partition.run ~jobs ~until:(Engine.Time.ms 1) world)
      in
      Alcotest.(check (pair (list (pair int int)) (list (pair int int))))
        (Printf.sprintf "per-path (packet, arrival) at jobs=%d" jobs)
        single got)
    [ 1; 2 ]

(* ------------------------------- Taps ------------------------------ *)

(* One packet client -> server across a star: the switch tap sees it at
   ingress, then the server downlink's tap at delivery, in time order. *)
let test_taps_fire_at_ingress_then_delivery () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let st =
    Topology.star topo ~n:2 ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 1) ()
  in
  let seen = ref [] in
  let tap point at p = seen := (point, at, p.Packet.uid) :: !seen in
  Switch.add_tap st.Topology.st_switch (tap "switch");
  Link.add_tap
    (Switch.port st.Topology.st_switch st.Topology.st_server_port)
    (tap "link");
  let delivered = ref 0 in
  Node.set_handler st.Topology.st_server (fun _ -> incr delivered);
  let p =
    pkt
      ~src:(Node.addr st.Topology.st_clients.(0))
      ~dst:(Node.addr st.Topology.st_server)
      ()
  in
  Node.send st.Topology.st_clients.(0) p;
  Engine.Sim.run sim;
  checki "delivered" 1 !delivered;
  match List.rev !seen with
  | [ ("switch", t_in, u_in); ("link", t_out, u_out) ] ->
    checki "same packet at both taps" u_in u_out;
    checki "switch tap saw the sent packet" p.Packet.uid u_in;
    checkb "ingress strictly before delivery" true (t_in < t_out)
  | _ -> Alcotest.fail "expected one switch tap then one link tap"

(* ----------------------------- Pktring ----------------------------- *)

(* Drains [r], oldest first. *)
let uids_of r =
  List.init (Pktring.length r) (fun _ -> (Pktring.pop r).Packet.uid)

(* Interleaved push/pop drives head past the physical end of the
   backing array; order and contents must survive the wrap. *)
let test_pktring_wraparound () =
  let r = Pktring.create ~capacity:4 () in
  let sent = ref [] in
  let popped = ref [] in
  for round = 1 to 5 do
    for _ = 1 to 3 do
      let p = pkt () in
      sent := p.Packet.uid :: !sent;
      Pktring.push r p
    done;
    for _ = 1 to if round < 5 then 3 else 0 do
      popped := (Pktring.pop r).Packet.uid :: !popped
    done
  done;
  checki "three left after interleaving" 3 (Pktring.length r);
  popped := List.rev_append (uids_of r) !popped;
  Alcotest.(check (list int))
    "FIFO order preserved across wraps" (List.rev !sent) (List.rev !popped)

(* Filling exactly to capacity then one past it: growth must keep the
   logical order even when head > 0 (the copy re-linearizes). *)
let test_pktring_capacity_boundary () =
  let r = Pktring.create ~capacity:4 () in
  Pktring.push r (pkt ());
  Pktring.push r (pkt ());
  ignore (Pktring.pop r);
  ignore (Pktring.pop r);
  let sent = ref [] in
  for _ = 1 to 4 do
    let p = pkt () in
    sent := p.Packet.uid :: !sent;
    Pktring.push r p
  done;
  checki "at capacity" 4 (Pktring.length r);
  let p = pkt () in
  sent := p.Packet.uid :: !sent;
  Pktring.push r p;
  checki "grown past capacity" 5 (Pktring.length r);
  Alcotest.(check (list int))
    "order preserved across growth" (List.rev !sent) (uids_of r)

(* --------------------------- link occupancy ------------------------ *)

(* Eight packets sent back to back at t=0 over a 10 G / 5 us link:
   serialization 1.2 us per packet, completions at 1.2k us, deliveries
   5 us later.  Sampled at off-completion instants, queue depth,
   in-flight population (propagating packets PLUS the one being
   serialized) and bytes-on-the-wire must conserve the checked-out
   population and match the pinned rows. *)
let test_link_occupancy_pinned () =
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let link =
    Link.create sim ~name:"l" ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 5) ~pool ()
  in
  let delivered = ref 0 in
  Link.set_dst link (fun p ->
      incr delivered;
      Packet.release pool p);
  Engine.Sim.schedule sim ~at:0 (fun () ->
      for _ = 1 to 8 do
        Link.send link (Packet.recycle pool ~src:1 ~dst:2 ~size:1500 ())
      done);
  let samples = ref [] in
  List.iter
    (fun t ->
      Engine.Sim.schedule sim ~at:t (fun () ->
          let q = Link.queued_pkts link in
          let fl = Link.in_flight_pkts link in
          checki "population conserved at sample" 8 (q + fl + !delivered);
          samples :=
            (t, (q, (fl, (Link.bytes_sent link, !delivered)))) :: !samples))
    [ 600; 1_800; 3_000; 6_100; 9_700; 12_000; 14_500; 20_000 ];
  Engine.Sim.run sim;
  checki "all delivered" 8 !delivered;
  (* (time ns, queued, in flight, bytes sent, delivered).  At 600 ns
     the in-service packet counts as in flight and its bytes are not
     yet on the wire; at 9.7 us the queue has drained, five packets
     propagate and three have arrived. *)
  Alcotest.(check (list (pair int (pair int (pair int (pair int int))))))
    "occupancy samples"
    [ (600, (7, (1, (0, 0))));
      (1_800, (6, (2, (1_500, 0))));
      (3_000, (5, (3, (3_000, 0))));
      (6_100, (2, (6, (7_500, 0))));
      (9_700, (0, (5, (12_000, 3))));
      (12_000, (0, (3, (12_000, 5))));
      (14_500, (0, (1, (12_000, 7))));
      (20_000, (0, (0, (12_000, 8)))) ]
    (List.rev !samples)

(* The event shape of the ns-3 point-to-point model: n packets sent
   back to back cost one transmit-completion and one delivery event
   each, with or without a propagation delay. *)
let test_link_two_events_per_packet () =
  List.iter
    (fun delay ->
      let sim = Engine.Sim.create () in
      let link =
        Link.create sim ~name:"l" ~rate:(Engine.Time.gbps 10) ~delay ()
      in
      let delivered = ref 0 in
      Link.set_dst link (fun _ -> incr delivered);
      let n = 8 in
      for _ = 1 to n do
        Link.send link (pkt ())
      done;
      Engine.Sim.run sim;
      checki "all delivered" n !delivered;
      checki (Printf.sprintf "events at delay %d ns" delay) (2 * n)
        (Engine.Sim.events_processed sim))
    [ Engine.Time.us 1; 0 ]

let suite =
  [ Alcotest.test_case "packet uids" `Quick test_packet_uids_unique;
    Alcotest.test_case "packet size check" `Quick test_packet_rejects_empty;
    Alcotest.test_case "flow hash" `Quick test_flow_hash_stable;
    Alcotest.test_case "fifo order/caps" `Quick test_fifo_order_and_caps;
    Alcotest.test_case "ecn marking" `Quick test_ecn_marks_above_threshold;
    Alcotest.test_case "trimming" `Quick test_trimming_trims_not_drops;
    Alcotest.test_case "wrr weights" `Quick test_wrr_shares_by_weight;
    Alcotest.test_case "wrr work conserving" `Quick test_wrr_work_conserving;
    Alcotest.test_case "fair mark" `Quick test_fair_mark_targets_heavy_class;
    Alcotest.test_case "red marks" `Quick test_red_marks_probabilistically;
    Alcotest.test_case "red quiet" `Quick test_red_quiet_queue_unmarked;
    Alcotest.test_case "red validation" `Quick test_red_validates_thresholds;
    Alcotest.test_case "qdisc hooks" `Quick test_hooks_fire;
    QCheck_alcotest.to_alcotest prop_qdisc_conservation;
    Alcotest.test_case "pktring wraparound" `Quick test_pktring_wraparound;
    Alcotest.test_case "pktring capacity boundary" `Quick
      test_pktring_capacity_boundary;
    Alcotest.test_case "link timing" `Quick test_link_serialization_and_delay;
    Alcotest.test_case "link occupancy pinned" `Quick
      test_link_occupancy_pinned;
    Alcotest.test_case "link two events per packet" `Quick
      test_link_two_events_per_packet;
    Alcotest.test_case "link drops" `Quick test_link_drops_when_queue_full;
    Alcotest.test_case "link accounting" `Quick test_link_utilization_accounting;
    Alcotest.test_case "link utilization zero window" `Quick
      test_link_utilization_zero_window;
    Alcotest.test_case "switch forward" `Quick test_switch_forwards;
    Alcotest.test_case "switch drop" `Quick test_switch_drop_action;
    Alcotest.test_case "switch hook absorb" `Quick test_switch_hook_absorbs;
    Alcotest.test_case "switch hook order" `Quick test_switch_hook_order;
    Alcotest.test_case "routing static" `Quick test_routing_static_and_unknown;
    Alcotest.test_case "routing ecmp" `Quick test_routing_ecmp_sticky_per_flow;
    Alcotest.test_case "routing spray" `Quick test_routing_spray_round_robins;
    Alcotest.test_case "routing unknown/single" `Quick
      test_routing_selectors_unknown_and_single;
    Alcotest.test_case "routing remove/restore" `Quick
      test_routing_remove_restore_port;
    QCheck_alcotest.to_alcotest prop_routing_matches_model;
    Alcotest.test_case "routing add_range" `Quick
      test_routing_add_range_shares_entry;
    Alcotest.test_case "routing ecmp salt" `Quick
      test_routing_ecmp_salt_decorrelates;
    Alcotest.test_case "host pair" `Quick test_host_pair_roundtrip;
    Alcotest.test_case "dumbbell" `Quick test_dumbbell_connectivity;
    Alcotest.test_case "dumbbell reverse" `Quick test_dumbbell_reverse_path;
    Alcotest.test_case "two-path" `Quick test_two_path_default_and_alternate;
    Alcotest.test_case "proxy chain" `Quick test_proxy_chain_wiring;
    Alcotest.test_case "star" `Quick test_star_connectivity;
    Alcotest.test_case "leaf-spine connectivity" `Quick
      test_leaf_spine_connectivity;
    Alcotest.test_case "leaf-spine ecmp" `Quick
      test_leaf_spine_ecmp_spreads_uplinks;
    Alcotest.test_case "fat-tree structure" `Quick test_fat_tree_structure;
    Alcotest.test_case "fat-tree connectivity" `Quick
      test_fat_tree_connectivity;
    Alcotest.test_case "fat-tree hop counts" `Quick test_fat_tree_hop_counts;
    Alcotest.test_case "fat-tree ecmp cores" `Quick
      test_fat_tree_ecmp_uses_all_cores;
    Alcotest.test_case "multi-tier leaf-spine connectivity" `Quick
      test_clos_connectivity;
    Alcotest.test_case "clos plane rule" `Quick test_clos_plane_rule;
    Alcotest.test_case "builders refuse bad sizes" `Quick
      test_builders_refuse_bad_sizes;
    Alcotest.test_case "topology lists every device" `Quick
      test_topology_lists_every_device;
    Alcotest.test_case "partitioned builds match single-sim" `Quick
      test_partitioned_builds_match_single_sim;
    Alcotest.test_case "partition lookahead = min cut delay" `Quick
      test_partition_lookahead_is_min_cut_delay;
    Alcotest.test_case "partition equal-time arrivals in creation order"
      `Quick test_partition_equal_time_arrivals_in_creation_order;
    Alcotest.test_case "partition flits wait across windows" `Quick
      test_partition_flits_wait_across_windows;
    Alcotest.test_case "taps fire at ingress then delivery" `Quick
      test_taps_fire_at_ingress_then_delivery;
    Alcotest.test_case "qdisc sentinel table" `Quick test_qdisc_sentinel_table;
    Alcotest.test_case "link refuses Packet.none" `Quick
      test_link_refuses_sentinel;
    Alcotest.test_case "switch forward shared" `Quick
      test_switch_forward_shared;
    Alcotest.test_case "pooled hop allocates nothing" `Quick
      test_pooled_hop_allocates_nothing ]
