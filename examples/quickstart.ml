(* Quickstart: two hosts, one link, a few MTP messages.

   Build and run:  dune exec examples/quickstart.exe

   Shows the core API: build a topology, create endpoints, bind a port,
   send messages with priorities, observe completions. *)

let () =
  (* 1. A simulator and a tiny topology: two hosts on a 10 Gbps link
        with 5 us of propagation delay. *)
  let sim = Engine.Sim.create ~seed:1 () in
  let topo = Netsim.Topology.create sim in
  let alice = Netsim.Topology.host topo "alice" in
  let bob = Netsim.Topology.host topo "bob" in
  ignore
    (Netsim.Topology.wire_host_pair topo alice bob
       ~rate:(Engine.Time.gbps 10) ~delay:(Engine.Time.us 5) ());

  (* 2. MTP endpoints.  No connections: endpoints just exist. *)
  let ep_alice = Mtp.Endpoint.attach (Netsim.Host.create alice) in
  let ep_bob = Mtp.Endpoint.attach (Netsim.Host.create bob) in

  (* 3. Bob accepts messages on port 7000. *)
  Mtp.Endpoint.bind ep_bob ~port:7000 (fun d ->
      Printf.printf "[%8.1f us] bob received msg %d: %d bytes (pri %d)\n"
        (Engine.Time.to_float_us (Engine.Sim.now sim))
        d.Mtp.Endpoint.dl_msg_id d.Mtp.Endpoint.dl_size d.Mtp.Endpoint.dl_pri);

  (* 4. Alice sends three messages; the small urgent one overtakes the
        big one thanks to the header's Msg Pri field. *)
  let send ~pri ~size =
    ignore
      (Mtp.Endpoint.send ep_alice ~dst:(Netsim.Node.addr bob) ~dst_port:7000
         ~pri
         ~on_complete:(fun fct ->
           Printf.printf "[%8.1f us] alice: %d-byte message acked in %.1f us\n"
             (Engine.Time.to_float_us (Engine.Sim.now sim))
             size (Engine.Time.to_float_us fct))
         ~size ())
  in
  send ~pri:1 ~size:2_000_000;
  send ~pri:1 ~size:500_000;
  send ~pri:0 ~size:2_000;

  (* 5. Run to completion. *)
  Engine.Sim.run sim;
  Printf.printf "done: %d messages delivered, %d bytes, 0 connections used\n"
    (Mtp.Endpoint.delivered_messages ep_bob)
    (Mtp.Endpoint.delivered_bytes ep_bob)
