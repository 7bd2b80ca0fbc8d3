(* Differential oracle: the batched breath-loop datapath must be
   observationally identical to the classic one-event-per-packet
   machine.  Each check runs the same scenario with batching forced on
   and off ([Datapath.with_batching] — links sample the flag at
   creation) and compares everything a user could see. *)

open Netsim

let check = Alcotest.(check string)
let checki = Alcotest.(check int)

(* Render an experiment result exactly as `mtp_sim` prints it. *)
let render result =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Experiments.Exp_common.print ~dump_series:true fmt result;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* Fig. 5 (multipath alternation) exercises both transports, ECN
   marking, path flipping and per-pathlet feedback — a dense slice of
   the simulator.  Byte-identical output with batching on vs off means
   every packet kept its exact timing and every queue decision its
   exact order.  A shortened run keeps the suite fast; the full-length
   identity is covered by the exhibit goldens in CI. *)
let test_fig5_differential () =
  let config =
    { Experiments.Fig5_multipath.default with duration = Engine.Time.ms 2 }
  in
  let classic =
    Datapath.with_batching false (fun () ->
        render (Experiments.Fig5_multipath.result ~config ()))
  in
  let batched =
    Datapath.with_batching true (fun () ->
        render (Experiments.Fig5_multipath.result ~config ()))
  in
  check "fig5 stdout identical across datapaths" classic batched

(* Packet conservation through a pooled two-hop forwarding chain with
   [delay] on both hops and the second at [rate2]: every packet checked
   out of the pool is, at every instant, either queued, on a wire, or
   released back — and the ledger must agree between datapaths.
   Returns (delivered, fresh, reused, live-at-end, max-live) so the
   comparison covers allocation behavior too. *)
let conservation_run ~delay ~rate2 () =
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let l1 =
    Link.create sim ~name:"a" ~rate:(Engine.Time.gbps 10) ~delay ~pool ()
  in
  let l2 =
    Link.create sim ~name:"b" ~rate:rate2 ~delay ~pool ()
  in
  let sw = Switch.create sim ~name:"sw" ~pool () in
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
  ignore
  @@ Engine.Sim.periodic sim ~interval:(Engine.Time.ns 800) (fun () ->
         (* Two back-to-back sends so bursts actually form. *)
         Link.send l1 (Packet.recycle pool ~src:1 ~dst:2 ~size:1500 ());
         Link.send l1 (Packet.recycle pool ~src:1 ~dst:2 ~size:1500 ());
         sent := !sent + 2;
         !sent < 2_000);
  ignore
  @@ Engine.Sim.periodic sim ~interval:(Engine.Time.us 3) (fun () ->
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
   second hop's previous completion: that tie must be ordered exactly
   as the classic machine orders it.  At zero delay the batched walk
   hands packets to the switch inline, inside the link's own
   activation; the second hop runs at 25 G there, since at equal rates
   its completions would tie with the first hop's, and a same-instant
   event keeps the walk from delivering inline.  Single-packet bursts
   give the classic event shape on the batched machine. *)
let test_conservation_differential () =
  List.iter
    (fun (delay, rate2) ->
      let run = conservation_run ~delay ~rate2 in
      let classic = Datapath.with_batching false run in
      let batched = Datapath.with_batching true run in
      let burst1 =
        Datapath.with_batching true (fun () -> Datapath.with_burst_limit 1 run)
      in
      let get k = List.assoc k classic in
      (* The source oversubscribes the 10 G hop, so the drop path is
         exercised too; with the final drain complete, delivery + drops
         must account for every send. *)
      checki "delivered + dropped = sent (classic)" 2_000
        (get "delivered" + get "dropped");
      checki "nothing left checked out (classic)" 0 (get "live_at_end");
      let ledger = Alcotest.(check (list (pair string int))) in
      ledger "conservation ledger: batched == classic" classic batched;
      ledger "conservation ledger: burst 1 == classic" classic burst1)
    [ (Engine.Time.us 2, Engine.Time.gbps 10); (0, Engine.Time.gbps 25) ]

let suite =
  [ Alcotest.test_case "fig5 stdout: batched == classic" `Slow
      test_fig5_differential;
    Alcotest.test_case "packet conservation: batched == classic" `Quick
      test_conservation_differential ]
