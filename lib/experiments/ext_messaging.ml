(* Every transport stack in the repo driven through the one
   first-class-module interface ({!Netsim.Transport_intf.S}): the same
   closed-loop message chain runs over TCP, DCTCP, UDP, proxied TCP and
   MTP with zero transport-specific wiring in the driver below — the
   per-transport code is setup only. *)

type config = {
  rate : Engine.Time.rate;
  delay : Engine.Time.t;
  msg_size : int;
  parallel : int;
  duration : Engine.Time.t;
}

let default =
  { rate = Engine.Time.gbps 10; delay = Engine.Time.us 5;
    msg_size = 100_000; parallel = 4; duration = Engine.Time.ms 10 }

type row = {
  r_id : string;
  r_sent : int;  (** Sender-side message completions (closed loop). *)
  r_rx_messages : int;  (** Receiver-side complete deliveries. *)
  r_goodput_gbps : float;
  r_mean_fct_us : float;
  r_retransmits : int;
  r_unclaimed : int;  (** Inbound packets no registered stack claimed. *)
}

let port = 80

(* [parallel] closed-loop message chains over the packed interface:
   swap the transport, keep the code. *)
let drive cfg sim ~client ~server ~dst ~hosts =
  let module T = Netsim.Transport_intf in
  T.listen server ~port ();
  let fcts = Stats.Summary.create () in
  let driver =
    Workload.Driver.closed_loop ~parallel:cfg.parallel ~size:cfg.msg_size
      (fun ~size ~on_complete ->
        T.send_message client ~dst ~dst_port:port
          ~on_complete:(fun fct ->
            Stats.Summary.add fcts (Engine.Time.to_float_us fct);
            on_complete fct)
          ~size ())
  in
  Engine.Sim.run ~until:cfg.duration sim;
  let srv = T.stats server in
  { r_id = T.id client;
    r_sent = Workload.Driver.completed driver;
    r_rx_messages = srv.T.rx_messages;
    r_goodput_gbps =
      float_of_int srv.T.rx_bytes *. 8.0
      /. Float.max 1e-9 (Engine.Time.to_float_s cfg.duration)
      /. 1e9;
    r_mean_fct_us =
      (if Stats.Summary.count fcts = 0 then 0.0 else Stats.Summary.mean fcts);
    r_retransmits = (T.stats client).T.retransmits;
    r_unclaimed =
      List.fold_left (fun acc h -> acc + Netsim.Host.unclaimed h) 0 hosts }

(* Two hosts on a duplex wire, each with a dispatching Host. *)
let pair cfg ?ab_qdisc () =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let a = Netsim.Topology.host topo "a" in
  let b = Netsim.Topology.host topo "b" in
  ignore
    (Netsim.Topology.wire_host_pair topo a b ~rate:cfg.rate ~delay:cfg.delay
       ?ab_qdisc ());
  (sim, Netsim.Host.create a, Netsim.Host.create b, Netsim.Node.addr b)

let run_tcp cfg =
  let sim, ha, hb, dst = pair cfg () in
  let client =
    Netsim.Transport_intf.pack
      (module Transport.Tcp.Messaging)
      (Transport.Tcp.attach ~snd_buf:1_000_000 ha)
  in
  let server =
    Netsim.Transport_intf.pack
      (module Transport.Tcp.Messaging)
      (Transport.Tcp.attach hb)
  in
  drive cfg sim ~client ~server ~dst ~hosts:[ ha; hb ]

let run_dctcp cfg =
  let sim, ha, hb, dst =
    pair cfg ~ab_qdisc:(Netsim.Qdisc.ecn ~cap_pkts:256 ~mark_threshold:30 ())
      ()
  in
  let client =
    Netsim.Transport_intf.pack
      (module Transport.Dctcp.Messaging)
      (Transport.Dctcp.attach ~snd_buf:1_000_000 ha)
  in
  let server =
    Netsim.Transport_intf.pack
      (module Transport.Dctcp.Messaging)
      (Transport.Dctcp.attach hb)
  in
  drive cfg sim ~client ~server ~dst ~hosts:[ ha; hb ]

let run_udp cfg =
  let sim, ha, hb, dst = pair cfg () in
  let client =
    Netsim.Transport_intf.pack
      (module Transport.Udp.Messaging)
      (Transport.Udp.attach ha)
  in
  let server =
    Netsim.Transport_intf.pack
      (module Transport.Udp.Messaging)
      (Transport.Udp.attach hb)
  in
  drive cfg sim ~client ~server ~dst ~hosts:[ ha; hb ]

let run_mtp cfg =
  let sim, ha, hb, dst = pair cfg () in
  let client =
    Netsim.Transport_intf.pack
      (module Mtp.Endpoint.Messaging)
      (Mtp.Endpoint.attach ha)
  in
  let server =
    Netsim.Transport_intf.pack
      (module Mtp.Endpoint.Messaging)
      (Mtp.Endpoint.attach hb)
  in
  drive cfg sim ~client ~server ~dst ~hosts:[ ha; hb ]

(* Proxied TCP needs its middle hop: client ↔ proxy ↔ server, with the
   relay re-originating toward the server's sink port. *)
let run_proxy cfg =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let ch =
    Netsim.Topology.proxy_chain topo ~front_rate:cfg.rate
      ~back_rate:cfg.rate ~delay:cfg.delay ()
  in
  let hc = Netsim.Host.create ch.Netsim.Topology.ch_client in
  let hp = Netsim.Host.create ch.Netsim.Topology.ch_proxy in
  let hs = Netsim.Host.create ch.Netsim.Topology.ch_server in
  let cstack = Transport.Tcp.attach ~snd_buf:1_000_000 hc in
  let pstack = Transport.Tcp.attach ~snd_buf:1_000_000 hp in
  let sstack = Transport.Tcp.attach hs in
  ignore
    (Transport.Proxy.create pstack ~front_port:8080
       ~server:(Netsim.Host.addr hs) ~server_port:port ());
  let client =
    Netsim.Transport_intf.pack
      (module Transport.Proxy.Messaging)
      (Transport.Proxy.via cstack ~proxy:(Netsim.Host.addr hp)
         ~proxy_port:8080)
  in
  let server =
    Netsim.Transport_intf.pack (module Transport.Tcp.Messaging) sstack
  in
  drive cfg sim ~client ~server ~dst:(Netsim.Host.addr hs)
    ~hosts:[ hc; hp; hs ]

type output = { rows : row list }

let run ?(config = default) () =
  { rows =
      [ run_tcp config; run_dctcp config; run_udp config;
        run_proxy config; run_mtp config ] }

let result ?config () =
  let o = run ?config () in
  let table =
    Stats.Table.create
      ~columns:
        [ "transport"; "msgs sent"; "msgs rcvd"; "goodput (Gbps)";
          "mean FCT (us)"; "retx"; "unclaimed" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_rowf table "%s | %d | %d | %.2f | %.0f | %d | %d"
        r.r_id r.r_sent r.r_rx_messages r.r_goodput_gbps r.r_mean_fct_us
        r.r_retransmits r.r_unclaimed)
    o.rows;
  Exp_common.make
    ~title:
      "Extension: five transports behind one interface (closed-loop 100KB \
       chains, 10G wire)"
    ~table
    ~notes:
      [ "the driver is transport-agnostic: each stack is a first-class \
         module packed behind Transport_intf.S";
        "UDP blasts at line rate with no acknowledgements, so sender-side \
         completions outrun receiver-side deliveries" ]
    ()
