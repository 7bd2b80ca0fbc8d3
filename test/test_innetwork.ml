(* Tests for the in-network computing offloads: KVS, cache, L7 LB,
   mutation, aggregation. *)

open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let star ?(n = 2) () =
  let sim = Engine.Sim.create ~seed:3 () in
  let topo = Topology.create sim in
  let st =
    Topology.star topo ~n ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ()
  in
  (sim, st)

(* -------------------------------- KVS ------------------------------ *)

let test_kvs_get_reply () =
  let sim, st = star () in
  let server_ep = Mtp.Endpoint.attach (Host.create st.Topology.st_server) in
  let server =
    Innetwork.Kvs.server server_ep ~port:70
      ~value_size:(fun key -> 100 * (key + 1))
      ()
  in
  let client_ep =
    Mtp.Endpoint.attach (Host.create st.Topology.st_clients.(0))
  in
  let client = Innetwork.Kvs.client client_ep in
  let got = ref [] in
  List.iter
    (fun key ->
      Innetwork.Kvs.get client ~server:(Node.addr st.Topology.st_server)
        ~server_port:70 ~key
        ~on_reply:(fun ~size ~latency ->
          checkb "latency positive" true (latency > 0);
          got := (key, size) :: !got)
        ())
    [ 0; 4; 2 ];
  Engine.Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "sizes follow keys"
    [ (0, 100); (2, 300); (4, 500) ]
    (List.sort compare !got);
  checki "server served all" 3 (Innetwork.Kvs.requests_served server)

let test_kvs_serialization_queue () =
  (* 10 concurrent requests at 50 us service: total time ~500 us, so
     the service queue really serializes. *)
  let sim, st = star () in
  let server_ep = Mtp.Endpoint.attach (Host.create st.Topology.st_server) in
  ignore
    (Innetwork.Kvs.server server_ep ~port:70
       ~service_time:(Engine.Time.us 50)
       ~value_size:(fun _ -> 100)
       ());
  let client_ep =
    Mtp.Endpoint.attach (Host.create st.Topology.st_clients.(0))
  in
  let client = Innetwork.Kvs.client client_ep in
  let last_done = ref 0 in
  for key = 0 to 9 do
    Innetwork.Kvs.get client ~server:(Node.addr st.Topology.st_server)
      ~server_port:70 ~key
      ~on_reply:(fun ~size:_ ~latency:_ -> last_done := Engine.Sim.now sim)
      ()
  done;
  Engine.Sim.run sim;
  checkb "serialized service" true (!last_done >= Engine.Time.us 500)

(* ------------------------------- Cache ----------------------------- *)

let cache_world () =
  let sim, st = star () in
  let server_ep = Mtp.Endpoint.attach (Host.create st.Topology.st_server) in
  let server =
    Innetwork.Kvs.server server_ep ~port:70
      ~service_time:(Engine.Time.us 30)
      ~value_size:(fun _ -> 900)
      ()
  in
  let cache =
    Innetwork.Cache.install st.Topology.st_switch
      ~server:(Node.addr st.Topology.st_server) ~server_port:70
      ~client_port_of:(fun addr -> addr)
      ~capacity:4 ()
  in
  let client_ep =
    Mtp.Endpoint.attach (Host.create st.Topology.st_clients.(0))
  in
  let client = Innetwork.Kvs.client client_ep in
  (sim, st, server, cache, client)

let test_cache_hit_bypasses_backend () =
  let sim, st, server, cache, client = cache_world () in
  let latencies = ref [] in
  let rec ask n =
    if n > 0 then
      Innetwork.Kvs.get client ~server:(Node.addr st.Topology.st_server)
        ~server_port:70 ~key:5
        ~on_reply:(fun ~size ~latency ->
          checki "full value from cache" 900 size;
          latencies := Engine.Time.to_float_us latency :: !latencies;
          ask (n - 1))
        ()
  in
  ask 4;
  Engine.Sim.run sim;
  checki "one miss" 1 (Innetwork.Cache.misses cache);
  checki "three hits" 3 (Innetwork.Cache.hits cache);
  checki "backend touched once" 1 (Innetwork.Kvs.requests_served server);
  match List.rev !latencies with
  | first :: rest ->
    List.iter
      (fun l -> checkb "hits much faster than the miss" true (l *. 2.0 < first))
      rest
  | [] -> Alcotest.fail "no replies"

let test_cache_lru_eviction () =
  let sim, st, _, cache, client = cache_world () in
  (* Touch 6 distinct keys sequentially with capacity 4. *)
  let rec ask keys =
    match keys with
    | [] -> ()
    | key :: rest ->
      Innetwork.Kvs.get client ~server:(Node.addr st.Topology.st_server)
        ~server_port:70 ~key
        ~on_reply:(fun ~size:_ ~latency:_ -> ask rest)
        ()
  in
  ask [ 0; 1; 2; 3; 4; 5 ];
  Engine.Sim.run sim;
  checkb "bounded occupancy" true (Innetwork.Cache.occupancy cache <= 4);
  checki "learned all six" 6 (Innetwork.Cache.learned cache)

let test_cache_manual_put () =
  let sim, st, server, cache, client = cache_world () in
  Innetwork.Cache.put cache ~key:77 ~size:900;
  Innetwork.Kvs.get client ~server:(Node.addr st.Topology.st_server)
    ~server_port:70 ~key:77
    ~on_reply:(fun ~size ~latency:_ -> checki "preloaded size" 900 size)
    ();
  Engine.Sim.run sim;
  checki "hit without any backend traffic" 0
    (Innetwork.Kvs.requests_served server);
  checki "one hit" 1 (Innetwork.Cache.hits cache)

(* ------------------------------- L7 LB ----------------------------- *)

let lb_world ~policy =
  let sim = Engine.Sim.create ~seed:3 () in
  let topo = Topology.create sim in
  let st =
    Topology.star topo ~n:5 ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ()
  in
  (* client 0, lb 1, replicas 2-4. *)
  let client_host = st.Topology.st_clients.(0) in
  let lb_host = st.Topology.st_clients.(1) in
  let replicas = Array.sub st.Topology.st_clients 2 3 in
  let replica_ports =
    Array.mapi
      (fun i replica ->
        let ep = Mtp.Endpoint.attach (Host.create replica) in
        let service =
          if i = 0 then Engine.Time.us 60 else Engine.Time.us 15
        in
        ignore
          (Innetwork.Kvs.server ep ~port:70 ~service_time:service
             ~value_size:(fun _ -> 500)
             ());
        (Node.addr replica, 70))
      replicas
  in
  let lb_ep = Mtp.Endpoint.attach (Host.create lb_host) in
  let lb = Innetwork.L7lb.create lb_ep ~port:70 ~replicas:replica_ports ~policy () in
  let client_ep = Mtp.Endpoint.attach (Host.create client_host) in
  let client = Innetwork.Kvs.client client_ep in
  (sim, st, lb_host, lb, client)

let drive sim st lb_host client n =
  let completed = ref 0 in
  let rec ask remaining =
    if remaining > 0 then
      Innetwork.Kvs.get client ~server:(Node.addr lb_host) ~server_port:70
        ~key:remaining
        ~on_reply:(fun ~size:_ ~latency:_ ->
          incr completed;
          ask (remaining - 1))
        ()
  in
  ignore st;
  ask n;
  Engine.Sim.run ~until:(Engine.Time.ms 100) sim;
  !completed

let test_l7lb_round_robin_spreads () =
  let sim, st, lb_host, lb, client = lb_world ~policy:Innetwork.L7lb.Round_robin in
  let completed = drive sim st lb_host client 30 in
  checki "all RPCs answered" 30 completed;
  checki "all relayed" 30 (Innetwork.L7lb.relayed_replies lb);
  Alcotest.(check (array int)) "equal spread" [| 10; 10; 10 |]
    (Innetwork.L7lb.per_replica lb)

let test_l7lb_least_outstanding_avoids_slow () =
  let sim, _st, lb_host, lb, client =
    lb_world ~policy:Innetwork.L7lb.Least_outstanding
  in
  (* Closed-loop single client cannot expose queue differences; use 6
     parallel chains. *)
  let completed = ref 0 in
  let rec ask remaining =
    if remaining > 0 then
      Innetwork.Kvs.get client ~server:(Node.addr lb_host) ~server_port:70
        ~key:remaining
        ~on_reply:(fun ~size:_ ~latency:_ ->
          incr completed;
          ask (remaining - 1))
        ()
  in
  for _ = 1 to 6 do
    ask 20
  done;
  Engine.Sim.run ~until:(Engine.Time.ms 100) sim;
  checki "all answered" 120 !completed;
  let dist = Innetwork.L7lb.per_replica lb in
  checkb "slow replica got the least work" true
    (dist.(0) < dist.(1) && dist.(0) < dist.(2))

let test_l7lb_consecutive_requests_differ () =
  (* The inter-message-independence property: one client's consecutive
     requests land on different replicas. *)
  let sim, st, lb_host, lb, client = lb_world ~policy:Innetwork.L7lb.Round_robin in
  ignore (drive sim st lb_host client 3);
  let dist = Innetwork.L7lb.per_replica lb in
  checki "three replicas each saw one" 3
    (Array.fold_left (fun acc c -> acc + min c 1) 0 dist)

(* ------------------------------ Mutate ----------------------------- *)

let test_mutate_compresses_in_flight () =
  let sim, st = star () in
  ignore
    (Innetwork.Mutate.install st.Topology.st_switch ~dst_port:80 ~factor:0.25
       ());
  let ea = Mtp.Endpoint.attach (Host.create st.Topology.st_clients.(0)) in
  let eb = Mtp.Endpoint.attach (Host.create st.Topology.st_server) in
  let got = ref 0 in
  Mtp.Endpoint.bind eb ~port:80 (fun d -> got := d.Mtp.Endpoint.dl_size);
  let completed = ref false in
  ignore
    (Mtp.Endpoint.send ea ~dst:(Node.addr st.Topology.st_server) ~dst_port:80
       ~on_complete:(fun _ -> completed := true)
       ~size:100_000 ());
  Engine.Sim.run sim;
  checkb "transfer completed despite mutation" true !completed;
  checkb "receiver saw ~25% of the bytes" true
    (!got > 20_000 && !got < 30_000)

let test_mutate_length_model () =
  checki "simple" 500 (Innetwork.Mutate.compressed_len ~orig:1000 ~factor:0.5);
  checki "floor at 1" 1 (Innetwork.Mutate.compressed_len ~orig:3 ~factor:0.1);
  let total =
    Innetwork.Mutate.compressed_msg_len ~msg_len:10_000 ~msg_pkts:7
      ~mtu_payload:1440 ~factor:0.5
  in
  (* 6 * 720 + comp(10_000 - 8640 = 1360) = 4320 + 680. *)
  checki "message total" 5_000 total

let test_mutate_leaves_other_ports_alone () =
  let sim, st = star () in
  let m =
    Innetwork.Mutate.install st.Topology.st_switch ~dst_port:80 ~factor:0.5 ()
  in
  let ea = Mtp.Endpoint.attach (Host.create st.Topology.st_clients.(0)) in
  let eb = Mtp.Endpoint.attach (Host.create st.Topology.st_server) in
  let got = ref 0 in
  Mtp.Endpoint.bind eb ~port:81 (fun d -> got := d.Mtp.Endpoint.dl_size);
  ignore
    (Mtp.Endpoint.send ea ~dst:(Node.addr st.Topology.st_server) ~dst_port:81
       ~size:50_000 ());
  Engine.Sim.run sim;
  checki "untouched" 50_000 !got;
  checki "nothing rewritten" 0 (Innetwork.Mutate.packets_rewritten m)

(* ----------------------------- Aggregate --------------------------- *)

let test_aggregation_reduces_ps_traffic () =
  let sim, st = star ~n:4 () in
  let ps = st.Topology.st_server in
  let ps_ep = Mtp.Endpoint.attach (Host.create ps) in
  let agg =
    Innetwork.Aggregate.install st.Topology.st_switch ~ps:(Node.addr ps)
      ~ps_port:90 ~ps_switch_port:st.Topology.st_server_port ~workers:4 ()
  in
  let ps_got = ref 0 in
  Mtp.Endpoint.bind ps_ep ~port:90 (fun _ -> incr ps_got);
  let all_acked = ref 0 in
  Array.iteri
    (fun i w ->
      let ep = Mtp.Endpoint.attach (Host.create w) in
      ignore
        (Mtp.Endpoint.send ep ~dst:(Node.addr ps) ~dst_port:90 ~cookie:1
           ~cookie2:i
           ~on_complete:(fun _ -> incr all_acked)
           ~size:2_000 ()))
    st.Topology.st_clients;
  Engine.Sim.run ~until:(Engine.Time.ms 10) sim;
  checki "every worker's send completed (switch acked)" 4 !all_acked;
  checki "PS saw exactly one aggregated message" 1 !ps_got;
  checki "absorbed all worker packets" 8 (Innetwork.Aggregate.absorbed agg);
  (* 2000 B = 2 packets per worker; 2 aggregated packets injected. *)
  checki "injected one aggregated copy" 2 (Innetwork.Aggregate.injected agg);
  checki "one round completed" 1 (Innetwork.Aggregate.rounds_completed agg)

let test_aggregation_waits_for_all_workers () =
  let sim, st = star ~n:4 () in
  let ps = st.Topology.st_server in
  let ps_ep = Mtp.Endpoint.attach (Host.create ps) in
  ignore
    (Innetwork.Aggregate.install st.Topology.st_switch ~ps:(Node.addr ps)
       ~ps_port:90 ~ps_switch_port:st.Topology.st_server_port ~workers:4 ());
  let ps_got = ref 0 in
  Mtp.Endpoint.bind ps_ep ~port:90 (fun _ -> incr ps_got);
  (* Only 3 of 4 workers contribute. *)
  for i = 0 to 2 do
    let ep = Mtp.Endpoint.attach (Host.create st.Topology.st_clients.(i)) in
    ignore
      (Mtp.Endpoint.send ep ~dst:(Node.addr ps) ~dst_port:90 ~cookie:1
         ~cookie2:i ~size:1_000 ())
  done;
  Engine.Sim.run ~until:(Engine.Time.ms 5) sim;
  checki "no partial aggregate released" 0 !ps_got

(* Multiple offloads coexist on one switch: hook chaining must keep
   each one scoped to its own traffic. *)
let test_offloads_compose_on_one_switch () =
  let sim, st = star ~n:3 () in
  let server_ep = Mtp.Endpoint.attach (Host.create st.Topology.st_server) in
  let kvs_server =
    Innetwork.Kvs.server server_ep ~port:70
      ~service_time:(Engine.Time.us 10)
      ~value_size:(fun _ -> 700)
      ()
  in
  let cache =
    Innetwork.Cache.install st.Topology.st_switch
      ~server:(Node.addr st.Topology.st_server) ~server_port:70
      ~client_port_of:(fun addr -> addr)
      ()
  in
  let mutate =
    Innetwork.Mutate.install st.Topology.st_switch ~dst_port:90 ~factor:0.5 ()
  in
  (* Client 0 runs KVS traffic; client 1 sends a compressible bulk
     message to a different port. *)
  let c0 = Mtp.Endpoint.attach (Host.create st.Topology.st_clients.(0)) in
  let kvs = Innetwork.Kvs.client c0 in
  let replies = ref 0 in
  let rec ask n =
    if n > 0 then
      Innetwork.Kvs.get kvs ~server:(Node.addr st.Topology.st_server)
        ~server_port:70 ~key:3
        ~on_reply:(fun ~size ~latency:_ ->
          checki "kvs reply untouched by the compressor" 700 size;
          incr replies;
          ask (n - 1))
        ()
  in
  ask 3;
  let c1 = Mtp.Endpoint.attach (Host.create st.Topology.st_clients.(1)) in
  let bulk_got = ref 0 in
  Mtp.Endpoint.bind server_ep ~port:90 (fun d ->
      bulk_got := d.Mtp.Endpoint.dl_size);
  ignore
    (Mtp.Endpoint.send c1 ~dst:(Node.addr st.Topology.st_server) ~dst_port:90
       ~size:60_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 20) sim;
  checki "all kvs replies" 3 !replies;
  checkb "cache served the repeats" true (Innetwork.Cache.hits cache >= 2);
  checki "backend saw only the miss" 1
    (Innetwork.Kvs.requests_served kvs_server);
  checkb "bulk stream compressed to ~half" true
    (!bulk_got > 25_000 && !bulk_got < 35_000);
  checkb "compressor only touched port 90" true
    (Innetwork.Mutate.packets_rewritten mutate > 0)

let suite =
  [ Alcotest.test_case "kvs get/reply" `Quick test_kvs_get_reply;
    Alcotest.test_case "kvs service queue" `Quick test_kvs_serialization_queue;
    Alcotest.test_case "cache hit bypass" `Quick test_cache_hit_bypasses_backend;
    Alcotest.test_case "cache lru" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache put" `Quick test_cache_manual_put;
    Alcotest.test_case "l7lb round robin" `Quick test_l7lb_round_robin_spreads;
    Alcotest.test_case "l7lb least outstanding" `Quick
      test_l7lb_least_outstanding_avoids_slow;
    Alcotest.test_case "l7lb independence" `Quick
      test_l7lb_consecutive_requests_differ;
    Alcotest.test_case "mutate compress" `Quick test_mutate_compresses_in_flight;
    Alcotest.test_case "mutate model" `Quick test_mutate_length_model;
    Alcotest.test_case "mutate scoped" `Quick test_mutate_leaves_other_ports_alone;
    Alcotest.test_case "aggregate reduce" `Quick
      test_aggregation_reduces_ps_traffic;
    Alcotest.test_case "aggregate barrier" `Quick
      test_aggregation_waits_for_all_workers;
    Alcotest.test_case "offloads compose" `Quick
      test_offloads_compose_on_one_switch ]
