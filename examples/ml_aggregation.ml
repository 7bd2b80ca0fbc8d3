(* ATP-style in-network gradient aggregation (paper §4).

   Run:  dune exec examples/ml_aggregation.exe

   Eight workers send per-round gradient messages to a parameter
   server.  The switch aggregates: it absorbs (and acknowledges) each
   worker's contribution and forwards a single combined message per
   round, cutting the PS link's load by the worker count. *)

let workers = 8
let rounds = 50
let gradient_bytes = 64_000

let run ~aggregate =
  let sim = Engine.Sim.create ~seed:9 () in
  let topo = Netsim.Topology.create sim in
  let st =
    Netsim.Topology.star topo ~n:workers ~rate:(Engine.Time.gbps 25)
      ~delay:(Engine.Time.us 3) ()
  in
  let ps = st.Netsim.Topology.st_server in
  let ps_ep = Mtp.Endpoint.attach (Netsim.Host.create ps) in
  let agg =
    if aggregate then
      Some
        (Innetwork.Aggregate.install st.Netsim.Topology.st_switch
           ~ps:(Netsim.Node.addr ps) ~ps_port:5000
           ~ps_switch_port:st.Netsim.Topology.st_server_port ~workers ())
    else None
  in
  let ps_messages = ref 0 in
  let rounds_done = ref 0 in
  let per_round = Hashtbl.create 64 in
  Mtp.Endpoint.bind ps_ep ~port:5000 (fun d ->
      incr ps_messages;
      let round = d.Mtp.Endpoint.dl_cookie in
      let contributions =
        (* Aggregated messages carry the worker count in cookie2. *)
        if aggregate then d.Mtp.Endpoint.dl_cookie2 else 1
      in
      let seen =
        (match Hashtbl.find_opt per_round round with Some s -> s | None -> 0)
        + contributions
      in
      Hashtbl.replace per_round round seen;
      if seen = workers then incr rounds_done);
  let worker_eps =
    Array.map
      (fun w -> Mtp.Endpoint.attach (Netsim.Host.create w))
      st.Netsim.Topology.st_clients
  in
  (* Synchronous training: every worker sends its gradient for round r;
     the next round starts one barrier interval later. *)
  let rec round r =
    if r < rounds then begin
      Array.iteri
        (fun i ep ->
          ignore
            (Mtp.Endpoint.send ep ~dst:(Netsim.Node.addr ps) ~dst_port:5000
               ~cookie:r ~cookie2:i ~size:gradient_bytes ()))
        worker_eps;
      Engine.Sim.after sim (Engine.Time.us 100) (fun () -> round (r + 1))
    end
  in
  round 0;
  Engine.Sim.run ~until:(Engine.Time.ms 50) sim;
  let ps_link_bytes =
    Netsim.Link.bytes_sent
      (Netsim.Switch.port st.Netsim.Topology.st_switch
         st.Netsim.Topology.st_server_port)
  in
  (!rounds_done, !ps_messages, ps_link_bytes, agg)

let () =
  let done0, msgs0, bytes0, _ = run ~aggregate:false in
  let done1, msgs1, bytes1, agg = run ~aggregate:true in
  Printf.printf "without aggregation: %d/%d rounds, %d messages at PS, %.1f MB on PS link\n"
    done0 rounds msgs0
    (float_of_int bytes0 /. 1e6);
  Printf.printf "with aggregation:    %d/%d rounds, %d messages at PS, %.1f MB on PS link\n"
    done1 rounds msgs1
    (float_of_int bytes1 /. 1e6);
  (match agg with
  | Some a ->
    Printf.printf
      "switch absorbed %d worker packets, injected %d aggregated packets \
       (%.1fx traffic reduction)\n"
      (Innetwork.Aggregate.absorbed a)
      (Innetwork.Aggregate.injected a)
      (float_of_int bytes0 /. float_of_int (max 1 bytes1))
  | None -> ())
