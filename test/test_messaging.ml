(* Tests for the unified transport layer: packet pooling, the packet
   ring, host dispatch, Transport_intf round-trips, and whole-run
   determinism of a converted experiment. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A packet with no protocol header. *)
let raw sim ~src ~dst ~size =
  Netsim.Packet.make ~entity:0 ~prio:0 ~flow_hash:0 ~payload:Netsim.Packet.Raw
    sim ~src ~dst ~size

(* ------------------------------ Pool ------------------------------- *)

let test_pool_recycles () =
  let sim = Engine.Sim.create () in
  let pool = Netsim.Packet.pool sim in
  let p = raw sim ~src:1 ~dst:2 ~size:100 in
  let uid0 = p.Netsim.Packet.uid in
  Netsim.Packet.release pool p;
  checki "parked" 1 (Netsim.Packet.pool_free pool);
  let q = Netsim.Packet.recycle pool ~src:3 ~dst:4 ~size:200 () in
  checkb "same cell reused" true (p == q);
  checkb "fresh uid" true (q.Netsim.Packet.uid <> uid0);
  checki "reinitialised src" 3 q.Netsim.Packet.src;
  checki "reinitialised size" 200 q.Netsim.Packet.size;
  checki "pool drained" 0 (Netsim.Packet.pool_free pool);
  let fresh, reused = Netsim.Packet.pool_stats pool in
  checki "no fallback allocation yet" 0 fresh;
  checki "one reused" 1 reused;
  (* Recycling from an empty pool falls back to a fresh record. *)
  ignore (Netsim.Packet.recycle pool ~src:5 ~dst:6 ~size:50 ());
  let fresh, _ = Netsim.Packet.pool_stats pool in
  checki "fallback counted" 1 fresh

let test_pool_recycle_rejects_empty () =
  let sim = Engine.Sim.create () in
  let pool = Netsim.Packet.pool sim in
  Alcotest.check_raises "size check survives recycling"
    (Invalid_argument "Packet.make: size must be positive") (fun () ->
      ignore (Netsim.Packet.recycle pool ~src:0 ~dst:1 ~size:0 ()))

(* ----------------------------- Pktring ----------------------------- *)

let test_pktring_fifo () =
  let sim = Engine.Sim.create () in
  let r = Netsim.Pktring.create ~capacity:2 () in
  let mk i = raw sim ~src:i ~dst:9 ~size:100 in
  (* Push past the initial capacity to exercise growth + wraparound. *)
  let pkts = Array.init 7 (fun i -> mk i) in
  Array.iter (Netsim.Pktring.push r) pkts;
  checki "length" 7 (Netsim.Pktring.length r);
  Array.iteri
    (fun i p ->
      checkb (Printf.sprintf "fifo %d" i) true (Netsim.Pktring.pop r == p))
    pkts;
  Alcotest.check_raises "empty pop raises"
    (Invalid_argument "Pktring.pop: empty") (fun () ->
      ignore (Netsim.Pktring.pop r))

(* --------------------------- Host dispatch ------------------------- *)

let test_host_dispatch_order () =
  let sim = Engine.Sim.create () in
  let node = Netsim.Node.create sim ~name:"h" ~addr:1 in
  let host = Netsim.Host.create node in
  let seen = ref [] in
  (* First stack claims even uids, second claims everything. *)
  Netsim.Host.register host ~name:"evens" (fun pkt ->
      if pkt.Netsim.Packet.uid land 1 = 0 then begin
        seen := ("evens", pkt.Netsim.Packet.uid) :: !seen;
        true
      end
      else false);
  Netsim.Host.register host ~name:"rest" (fun pkt ->
      seen := ("rest", pkt.Netsim.Packet.uid) :: !seen;
      true);
  Alcotest.(check (list string))
    "registration order" [ "evens"; "rest" ]
    (Netsim.Host.stacks host);
  for _ = 1 to 4 do
    Netsim.Node.receive node (raw sim ~src:2 ~dst:1 ~size:64)
  done;
  let evens = List.filter (fun (s, _) -> s = "evens") !seen in
  let rest = List.filter (fun (s, _) -> s = "rest") !seen in
  checki "evens claimed half" 2 (List.length evens);
  checki "rest claimed the others" 2 (List.length rest);
  checki "nothing unclaimed" 0 (Netsim.Host.unclaimed host)

let test_host_counts_unclaimed () =
  let sim = Engine.Sim.create () in
  let node = Netsim.Node.create sim ~name:"h" ~addr:1 in
  let host = Netsim.Host.create node in
  Netsim.Node.receive node (raw sim ~src:2 ~dst:1 ~size:64);
  checki "unclaimed counted" 1 (Netsim.Host.unclaimed host)

(* A second host on one node would silently unplug every stack
   registered with the first, so [create] refuses any node that
   already has a handler, raw or dispatcher. *)
let test_host_refuses_handled_node () =
  let sim = Engine.Sim.create () in
  let refused node =
    Alcotest.check_raises "second handler refused"
      (Invalid_argument "Host.create: the node already has a packet handler")
      (fun () -> ignore (Netsim.Host.create node))
  in
  let node = Netsim.Node.create sim ~name:"h" ~addr:1 in
  ignore (Netsim.Host.create node);
  refused node;
  let raw = Netsim.Node.create sim ~name:"r" ~addr:2 in
  Netsim.Node.set_handler raw (fun _ -> ());
  refused raw

(* Dispatch is on every packet's path: offering a packet to one stack
   or past a declining stack to a second must allocate nothing. *)
let test_host_dispatch_allocates_nothing () =
  let words_per_run stacks =
    let sim = Engine.Sim.create () in
    let node = Netsim.Node.create sim ~name:"h" ~addr:1 in
    let host = Netsim.Host.create node in
    let claimed = ref 0 in
    for i = 1 to stacks do
      let last = i = stacks in
      Netsim.Host.register host ~name:(string_of_int i) (fun _ ->
          if last then incr claimed;
          last)
    done;
    let pkt = raw sim ~src:2 ~dst:1 ~size:64 in
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      Netsim.Node.receive node pkt
    done;
    let words = Gc.minor_words () -. before in
    checki "every packet claimed" 10_000 !claimed;
    checki "nothing unclaimed" 0 (Netsim.Host.unclaimed host);
    words
  in
  Alcotest.(check (float 0.0)) "one stack" 0.0 (words_per_run 1);
  Alcotest.(check (float 0.0)) "two stacks" 0.0 (words_per_run 2)

(* ----------------------- Transport round-trips --------------------- *)

(* Each transport sends one message through the packed interface over a
   10G host pair; the receiver must see the full message's bytes. *)
let round_trip packed_of_hosts ~expect_latency =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.host topo "a" in
  let b = Netsim.Topology.host topo "b" in
  ignore
    (Netsim.Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 2) ());
  let ha = Netsim.Host.create a and hb = Netsim.Host.create b in
  let client, server = packed_of_hosts ha hb in
  let module T = Netsim.Transport_intf in
  let got = ref 0 in
  let messages = ref 0 in
  let latency = ref 0 in
  T.listen server ~port:80
    ~on_data:(fun n -> got := !got + n)
    ~on_message:(fun d ->
      incr messages;
      latency := d.T.msg_latency)
    ();
  let completed = ref false in
  T.send_message client ~dst:(Netsim.Host.addr hb) ~dst_port:80
    ~on_complete:(fun _ -> completed := true)
    ~size:50_000 ();
  Engine.Sim.run ~until:(Engine.Time.ms 50) sim;
  checki "all bytes delivered" 50_000 !got;
  checki "one message" 1 !messages;
  checkb "sender completion fired" true !completed;
  if expect_latency then
    checkb "receiver-side latency measured" true (!latency > 0);
  checki "rx_bytes stat" 50_000 (T.stats server).T.rx_bytes;
  checki "rx_messages stat" 1 (T.stats server).T.rx_messages;
  checki "tx_messages stat" 1 (T.stats client).T.tx_messages

let test_roundtrip_tcp () =
  round_trip ~expect_latency:true (fun ha hb ->
      ( Netsim.Transport_intf.pack
          (module Transport.Tcp.Messaging)
          (Transport.Tcp.attach ha),
        Netsim.Transport_intf.pack
          (module Transport.Tcp.Messaging)
          (Transport.Tcp.attach hb) ))

let test_roundtrip_dctcp () =
  round_trip ~expect_latency:true (fun ha hb ->
      ( Netsim.Transport_intf.pack
          (module Transport.Dctcp.Messaging)
          (Transport.Dctcp.attach ha),
        Netsim.Transport_intf.pack
          (module Transport.Dctcp.Messaging)
          (Transport.Dctcp.attach hb) ))

let test_roundtrip_udp () =
  round_trip ~expect_latency:false (fun ha hb ->
      ( Netsim.Transport_intf.pack
          (module Transport.Udp.Messaging)
          (Transport.Udp.attach ha),
        Netsim.Transport_intf.pack
          (module Transport.Udp.Messaging)
          (Transport.Udp.attach hb) ))

let test_roundtrip_mtp () =
  round_trip ~expect_latency:true (fun ha hb ->
      ( Netsim.Transport_intf.pack
          (module Mtp.Endpoint.Messaging)
          (Mtp.Endpoint.attach ha),
        Netsim.Transport_intf.pack
          (module Mtp.Endpoint.Messaging)
          (Mtp.Endpoint.attach hb) ))

(* TCP and MTP coexist behind one host dispatcher: each stack claims
   only its own protocol's packets. *)
let test_host_shares_tcp_and_mtp () =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.host topo "a" in
  let b = Netsim.Topology.host topo "b" in
  ignore
    (Netsim.Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 2) ());
  let ha = Netsim.Host.create a and hb = Netsim.Host.create b in
  let tcp_a = Transport.Tcp.attach ha and tcp_b = Transport.Tcp.attach hb in
  let mtp_a = Mtp.Endpoint.attach ha and mtp_b = Mtp.Endpoint.attach hb in
  let tcp_bytes = ref 0 and mtp_bytes = ref 0 in
  Transport.Tcp.Messaging.listen tcp_b ~port:80
    ~on_data:(fun n -> tcp_bytes := !tcp_bytes + n)
    ();
  Mtp.Endpoint.Messaging.listen mtp_b ~port:81
    ~on_data:(fun n -> mtp_bytes := !mtp_bytes + n)
    ();
  Transport.Tcp.Messaging.send_message tcp_a ~dst:(Netsim.Host.addr hb)
    ~dst_port:80 ~size:30_000 ();
  Mtp.Endpoint.Messaging.send_message mtp_a ~dst:(Netsim.Host.addr hb)
    ~dst_port:81 ~size:30_000 ();
  ignore mtp_b;
  ignore tcp_b;
  Engine.Sim.run ~until:(Engine.Time.ms 50) sim;
  checki "tcp bytes" 30_000 !tcp_bytes;
  checki "mtp bytes" 30_000 !mtp_bytes;
  ignore mtp_a;
  checki "nothing unclaimed on b" 0 (Netsim.Host.unclaimed hb)

(* -------------------------- Determinism ---------------------------- *)

(* Two identical runs of a converted experiment must print identical
   bytes — the refactor keeps event ordering fully deterministic. *)
let test_fig5_deterministic () =
  let render () =
    let config =
      { Experiments.Fig5_multipath.default with
        Experiments.Fig5_multipath.duration = Engine.Time.us 500 }
    in
    Format.asprintf "%a"
      (fun fmt r -> Experiments.Exp_common.print fmt r)
      (Experiments.Fig5_multipath.result ~config ())
  in
  Alcotest.(check string) "byte-identical reruns" (render ()) (render ())

let suite =
  [ Alcotest.test_case "pool recycles" `Quick test_pool_recycles;
    Alcotest.test_case "pool size check" `Quick test_pool_recycle_rejects_empty;
    Alcotest.test_case "pktring fifo+growth" `Quick test_pktring_fifo;
    Alcotest.test_case "host dispatch order" `Quick test_host_dispatch_order;
    Alcotest.test_case "host unclaimed" `Quick test_host_counts_unclaimed;
    Alcotest.test_case "host refuses a handled node" `Quick
      test_host_refuses_handled_node;
    Alcotest.test_case "host dispatch allocates nothing" `Quick
      test_host_dispatch_allocates_nothing;
    Alcotest.test_case "roundtrip tcp" `Quick test_roundtrip_tcp;
    Alcotest.test_case "roundtrip dctcp" `Quick test_roundtrip_dctcp;
    Alcotest.test_case "roundtrip udp" `Quick test_roundtrip_udp;
    Alcotest.test_case "roundtrip mtp" `Quick test_roundtrip_mtp;
    Alcotest.test_case "tcp+mtp share a host" `Quick
      test_host_shares_tcp_and_mtp;
    Alcotest.test_case "fig5 deterministic" `Slow test_fig5_deterministic ]
