(* In-network KVS cache (the paper's Fig. 1 scenario).

   Run:  dune exec examples/innetwork_cache.exe

   Clients query a key-value store through a switch.  The backend is
   slow (20 us per request); the switch hosts a NetCache-style cache
   that learns hot keys from replies streaming by and answers repeat
   queries directly.  The same Zipf-ish workload runs with and without
   the cache; mean latency and backend load are compared. *)

let requests = 400

let run ~with_cache =
  let sim = Engine.Sim.create ~seed:7 () in
  let topo = Netsim.Topology.create sim in
  let st =
    Netsim.Topology.star topo ~n:2 ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ()
  in
  let server_ep =
    Mtp.Endpoint.attach (Netsim.Host.create st.Netsim.Topology.st_server)
  in
  let server =
    Innetwork.Kvs.server server_ep ~port:6000
      ~service_time:(Engine.Time.us 20)
      ~value_size:(fun key -> 400 + (key * 37 mod 800))
      ()
  in
  let cache =
    if with_cache then
      Some
        (Innetwork.Cache.install st.Netsim.Topology.st_switch
           ~server:(Netsim.Node.addr st.Netsim.Topology.st_server)
           ~server_port:6000
           ~client_port_of:(fun addr -> addr)
           ~capacity:16 ())
    else None
  in
  let client_ep =
    Mtp.Endpoint.attach (Netsim.Host.create st.Netsim.Topology.st_clients.(0))
  in
  let kvs = Innetwork.Kvs.client client_ep in
  let latencies = Stats.Summary.create () in
  let rng = Engine.Rng.create 3 in
  (* Zipf-ish: 80% of requests hit 4 hot keys. *)
  let next_key () =
    if Engine.Rng.float rng < 0.8 then Engine.Rng.int rng 4
    else 4 + Engine.Rng.int rng 60
  in
  let rec ask remaining =
    if remaining > 0 then
      Innetwork.Kvs.get kvs
        ~server:(Netsim.Node.addr st.Netsim.Topology.st_server)
        ~server_port:6000 ~key:(next_key ())
        ~on_reply:(fun ~size:_ ~latency ->
          Stats.Summary.add latencies (Engine.Time.to_float_us latency);
          ask (remaining - 1))
        ()
  in
  ask requests;
  Engine.Sim.run ~until:(Engine.Time.ms 100) sim;
  (latencies, Innetwork.Kvs.requests_served server, cache)

let () =
  let baseline, backend_load, _ = run ~with_cache:false in
  let cached, backend_load_cached, cache = run ~with_cache:true in
  Printf.printf "Without cache: %d replies, mean %.1f us, backend served %d\n"
    (Stats.Summary.count baseline)
    (Stats.Summary.mean baseline)
    backend_load;
  Printf.printf "With cache:    %d replies, mean %.1f us, backend served %d\n"
    (Stats.Summary.count cached)
    (Stats.Summary.mean cached)
    backend_load_cached;
  (match cache with
  | Some c ->
    Printf.printf
      "Cache: %d hits, %d misses, %d keys learned from replies\n"
      (Innetwork.Cache.hits c) (Innetwork.Cache.misses c)
      (Innetwork.Cache.learned c)
  | None -> ());
  Printf.printf "Speedup: %.1fx mean latency, %.1fx backend offload\n"
    (Stats.Summary.mean baseline /. Stats.Summary.mean cached)
    (float_of_int backend_load /. float_of_int (max 1 backend_load_cached))
