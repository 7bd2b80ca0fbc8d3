(* Packet conservation through a pooled two-hop forwarding chain, with
   the ledger pinned: every queue decision and every pool recycle must
   land exactly where it did when these figures were recorded. *)

open Netsim

let checki = Alcotest.(check int)

(* [delay] on both hops and the second at [rate2]: every packet checked
   out of the pool is, at every instant, either queued, on a wire, or
   released back.  Returns (delivered, dropped, fresh, reused,
   live-at-end, max-live) so the pin covers allocation behavior too. *)
let conservation_run ~delay ~rate2 () =
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let l1 = Link.create pool ~name:"a" ~rate:(Engine.Time.gbps 10) ~delay () in
  let l2 = Link.create pool ~name:"b" ~rate:rate2 ~delay () in
  let sw = Switch.create pool ~name:"sw" in
  let port = Switch.add_port sw l2 in
  Switch.set_forward sw (fun _ -> Switch.Forward port);
  Link.set_dst l1 (fun p -> Switch.receive sw p);
  let delivered = ref 0 in
  Link.set_dst l2 (fun p ->
      incr delivered;
      Packet.release pool p);
  let max_live = ref 0 in
  let audit () =
    let live = Packet.pool_live pool in
    if live > !max_live then max_live := live;
    let accounted =
      Link.queued_pkts l1 + Link.in_flight_pkts l1 + Link.queued_pkts l2
      + Link.in_flight_pkts l2
    in
    checki "pool_live = queued + in-flight" live accounted
  in
  let sent = ref 0 in
  Engine.Sim.periodic sim ~interval:(Engine.Time.ns 800) (fun () ->
      (* Two back-to-back sends so bursts actually form. *)
      Link.send l1 (Packet.recycle pool ~src:1 ~dst:2 ~size:1500 ());
      Link.send l1 (Packet.recycle pool ~src:1 ~dst:2 ~size:1500 ());
      sent := !sent + 2;
      !sent < 2_000);
  Engine.Sim.periodic sim ~interval:(Engine.Time.us 3) (fun () ->
      audit ();
      Engine.Sim.now sim < Engine.Time.ms 2);
  Engine.Sim.run sim;
  audit ();
  let fresh, reused = Packet.pool_stats pool in
  [ ("delivered", !delivered);
    ("dropped", (Link.qdisc l1).Qdisc.drops ());
    ("fresh", fresh);
    ("reused", reused);
    ("live_at_end", Packet.pool_live pool);
    ("peak_live", !max_live) ]

(* At 2 µs every delivery is a heap event, and with both hops at 10 G
   each delivery from the first hop lands at the same instant as the
   second hop's previous completion: that tie must keep its order.  At
   zero delay each delivery is dispatched at its own completion
   instant, inside the same nanosecond; the second hop runs at 25 G
   there. *)
let test_conservation_pinned () =
  List.iter
    (fun (delay, rate2, fresh, reused, peak_live) ->
      let ledger = conservation_run ~delay ~rate2 () in
      let get k = List.assoc k ledger in
      (* The source oversubscribes the 10 G hop, so the drop path is
         exercised too; with the final drain complete, delivery + drops
         must account for every send. *)
      checki "delivered + dropped = sent" 2_000
        (get "delivered" + get "dropped");
      checki "nothing left checked out" 0 (get "live_at_end");
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "conservation ledger at delay %d ns" delay)
        [ ("delivered", 1667); ("dropped", 333); ("fresh", fresh);
          ("reused", reused); ("live_at_end", 0); ("peak_live", peak_live) ]
        ledger)
    [ (Engine.Time.us 2, Engine.Time.gbps 10, 1007, 993, 1006);
      (0, Engine.Time.gbps 25, 1003, 997, 1002) ]

let suite =
  [ Alcotest.test_case "packet conservation ledger pinned" `Quick
      test_conservation_pinned ]
