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

(* A second release would park one record twice and hand it to two
   owners; it raises instead, into the same pool or another. *)
let test_pool_double_release_raises () =
  let sim = Engine.Sim.create () in
  let pool = Netsim.Packet.pool sim and other = Netsim.Packet.pool sim in
  let p = raw sim ~src:1 ~dst:2 ~size:100 in
  Netsim.Packet.release pool p;
  let refused pool =
    Alcotest.check_raises "second release refused"
      (Invalid_argument "Packet.release: packet already released") (fun () ->
        Netsim.Packet.release pool p)
  in
  refused pool;
  refused other;
  checki "parked once" 1 (Netsim.Packet.pool_free pool);
  checki "nothing parked in the other pool" 0 (Netsim.Packet.pool_free other);
  Netsim.Packet.release pool Netsim.Packet.none;
  checki "none is not parked" 1 (Netsim.Packet.pool_free pool);
  (* Taken again, the record is live and may be released once more. *)
  let q = Netsim.Packet.recycle pool ~src:3 ~dst:4 ~size:200 () in
  checkb "same cell" true (p == q);
  Netsim.Packet.release other q;
  checki "parked in the other pool" 1 (Netsim.Packet.pool_free other)

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

(* ------------------------- Pooled transports ----------------------- *)

(* One client sends to one server over a 10G pair with no loss.
   Every data packet and ack is taken from its sender's host pool and
   released into its receiver's, so once the flight has reached its
   largest size neither pool allocates another record: [fresh] stops
   growing while [reused] keeps climbing. *)
let steady_exchange packed_of_hosts drive =
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
  T.listen server ~port:80 ();
  drive client ~dst:(Netsim.Host.addr hb) ~dst_port:80;
  let snapshot () =
    ( Netsim.Packet.pool_stats (Netsim.Host.pool ha),
      Netsim.Packet.pool_stats (Netsim.Host.pool hb),
      (T.stats server).T.rx_bytes )
  in
  Engine.Sim.run ~until:(Engine.Time.ms 2) sim;
  let (fresh_a, reused_a), (fresh_b, reused_b), rx = snapshot () in
  Engine.Sim.run ~until:(Engine.Time.ms 10) sim;
  let (fresh_a', reused_a'), (fresh_b', reused_b'), rx' = snapshot () in
  checkb "data kept flowing" true (rx' > rx + 1_000_000);
  checki "client fresh steady" fresh_a fresh_a';
  checki "server fresh steady" fresh_b fresh_b';
  checkb "client reuses" true (reused_a' > reused_a);
  checkb "server reuses" true (reused_b' > reused_b);
  checki "nothing unclaimed" 0
    (Netsim.Host.unclaimed ha + Netsim.Host.unclaimed hb)

(* MTP: 100 KB messages back to back. *)
let test_mtp_steady_pool () =
  steady_exchange
    (fun ha hb ->
      ( Netsim.Transport_intf.pack
          (module Mtp.Endpoint.Messaging)
          (Mtp.Endpoint.attach ha),
        Netsim.Transport_intf.pack
          (module Mtp.Endpoint.Messaging)
          (Mtp.Endpoint.attach hb) ))
    (fun client ~dst ~dst_port ->
      let rec next () =
        Netsim.Transport_intf.send_message client ~dst ~dst_port
          ~on_complete:(fun _ -> next ())
          ~size:100_000 ()
      in
      next ())

(* DCTCP: one persistent flow, its flight capped by a 64 KB send
   buffer.  (A flow per message would not do: per connection the
   client sends one packet more than it gets back -- SYN, handshake
   ack and FIN against the server's SYN-ACK and FIN ack -- so its pool
   would take a fresh record per message.) *)
let test_dctcp_steady_pool () =
  steady_exchange
    (fun ha hb ->
      ( Netsim.Transport_intf.pack
          (module Transport.Dctcp.Messaging)
          (Transport.Dctcp.attach ~snd_buf:64_000 ha),
        Netsim.Transport_intf.pack
          (module Transport.Dctcp.Messaging)
          (Transport.Dctcp.attach hb) ))
    (fun client ~dst ~dst_port ->
      Netsim.Transport_intf.stream client ~dst ~dst_port ())

(* A stack releases only what it claims: an MTP packet for an unbound
   port and a TCP segment for a port nobody listens on pass the MTP
   and TCP stacks and reach the next registered stack as they were
   sent, live, with nothing parked in the host's pool. *)
let test_unclaimed_packet_passes_intact () =
  let sim = Engine.Sim.create () in
  let node = Netsim.Node.create sim ~name:"h" ~addr:1 in
  let host = Netsim.Host.create node in
  ignore (Mtp.Endpoint.attach host);
  ignore (Transport.Tcp.attach host);
  let seen = ref [] in
  Netsim.Host.register host ~name:"sink" (fun pkt ->
      seen := pkt :: !seen;
      true);
  let pool = Netsim.Packet.pool sim in
  let header =
    Mtp.Wire.data ~pri:0 ~tc:0 ~cookie:0 ~cookie2:0 ~exclude:[] ~src_port:7
      ~dst_port:99 ~msg_id:1 ~msg_len:1440 ~msg_pkts:1 ~pkt_num:0
      ~pkt_offset:0 ~pkt_len:1440
  in
  let seg =
    { Transport.Tcp_wire.src_port = 7; dst_port = 99; seq = 0; ack = 0;
      payload = 100; syn = false; fin = false; is_ack = true; ece = false;
      probe = false; rwnd = 0 }
  in
  let offer pkt =
    let uid = pkt.Netsim.Packet.uid and payload = pkt.Netsim.Packet.payload in
    Netsim.Node.receive node pkt;
    (match !seen with
    | p :: _ -> checkb "the packet itself" true (p == pkt)
    | [] -> Alcotest.fail "no stack saw the packet");
    checki "uid untouched" uid pkt.Netsim.Packet.uid;
    checkb "payload untouched" true (pkt.Netsim.Packet.payload == payload)
  in
  offer (Mtp.Wire.packet pool ~src:2 ~dst:1 ~entity:0 (Mtp.Wire.Mtp header));
  offer (Transport.Tcp_wire.packet pool ~src:2 ~dst:1 ~entity:0 seg);
  checki "both reached the sink" 2 (List.length !seen);
  checki "nothing released" 0 (Netsim.Packet.pool_free (Netsim.Host.pool host))

(* A claimed segment goes back to the pool only once handled.  Every
   a->b segment arrives CE-marked, and b's first delivery opens a
   connection back to a, so b sends while the data segment is still
   being read: each ack that follows must still echo the mark.
   Released first, the segment's record would be reused for that SYN
   and its mark cleared before the ack reads it. *)
let test_tcp_releases_after_handling () =
  let module Tcp = Transport.Tcp in
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.host topo "a" in
  let b = Netsim.Topology.host topo "b" in
  let _, ba =
    Netsim.Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2)
      ~ab_qdisc:(Netsim.Qdisc.ecn ~cap_pkts:1000 ~mark_threshold:0 ())
      ()
  in
  let ha = Netsim.Host.create a and hb = Netsim.Host.create b in
  let ta = Tcp.attach ha and tb = Tcp.attach hb in
  Tcp.Messaging.listen ta ~port:81 ();
  let replied = ref false in
  Tcp.Messaging.listen tb ~port:80
    ~on_data:(fun _ ->
      if not !replied then begin
        replied := true;
        Tcp.Messaging.send_message tb ~dst:(Netsim.Host.addr ha) ~dst_port:81
          ~size:1000 ()
      end)
    ();
  let acks = ref 0 and echoed = ref 0 in
  Netsim.Link.add_tap ba (fun _ p ->
      match p.Netsim.Packet.payload with
      | Transport.Tcp_wire.Tcp s
        when s.Transport.Tcp_wire.src_port = 80 && s.is_ack && not s.syn ->
        incr acks;
        if s.ece then incr echoed
      | _ -> ());
  Tcp.Messaging.send_message ta ~dst:(Netsim.Host.addr hb) ~dst_port:80
    ~size:10_000 ();
  Engine.Sim.run ~until:(Engine.Time.ms 5) sim;
  checkb "b replied" true !replied;
  checkb "b acked" true (!acks > 0);
  checki "every ack echoes CE" !acks !echoed

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
    Alcotest.test_case "pool double release raises" `Quick
      test_pool_double_release_raises;
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
    Alcotest.test_case "mtp exchange pools reach steady state" `Quick
      test_mtp_steady_pool;
    Alcotest.test_case "dctcp exchange pools reach steady state" `Quick
      test_dctcp_steady_pool;
    Alcotest.test_case "unclaimed packet passes intact" `Quick
      test_unclaimed_packet_passes_intact;
    Alcotest.test_case "tcp releases a segment after handling it" `Quick
      test_tcp_releases_after_handling;
    Alcotest.test_case "fig5 deterministic" `Slow test_fig5_deterministic ]
