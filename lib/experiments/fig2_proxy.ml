type config = {
  front_rate : Engine.Time.rate;
  back_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;
  rwnd_limit : int;
  duration : Engine.Time.t;
  sample_interval : Engine.Time.t;
}

let default =
  { front_rate = Engine.Time.gbps 100; back_rate = Engine.Time.gbps 40;
    link_delay = Engine.Time.us 2; rwnd_limit = 256_000;
    duration = Engine.Time.ms 4; sample_interval = Engine.Time.us 32 }

type variant_out = {
  buffer : Stats.Timeseries.t;
  max_buffer : int;
  client_gbps : float;
  stall : Engine.Time.t;
}

let run_variant cfg ~limited =
  let sim = Engine.Sim.create () in
  let topo = Netsim.Topology.create sim in
  let ch =
    Netsim.Topology.proxy_chain topo ~front_rate:cfg.front_rate
      ~back_rate:cfg.back_rate ~delay:cfg.link_delay
      ~back_qdisc:(Netsim.Qdisc.fifo ~cap_pkts:256 ())
      ()
  in
  (* Send buffers keep endpoints loss-free so the mismatch lands in the
     proxy, as in the paper's termination experiment. *)
  let client =
    Transport.Tcp.attach ~snd_buf:1_000_000
      (Netsim.Host.create ch.Netsim.Topology.ch_client)
  in
  (* The proxy's socket buffer is sized to the 40G path (BDP + queue)
     so the upstream never overruns its own egress queue. *)
  let pstack =
    Transport.Tcp.attach ~snd_buf:350_000
      (Netsim.Host.create ch.Netsim.Topology.ch_proxy)
  in
  let server =
    Transport.Tcp.attach (Netsim.Host.create ch.Netsim.Topology.ch_server)
  in
  let meter = Stats.Meter.create sim ~interval:cfg.sample_interval () in
  Transport.Tcp.Messaging.listen server ~port:90
    ~on_data:(Stats.Meter.count_bytes meter) ();
  let proxy =
    if limited then
      Transport.Proxy.create pstack ~front_port:80
        ~server:(Netsim.Node.addr ch.Netsim.Topology.ch_server)
        ~server_port:90 ~front_rcv_buf:cfg.rwnd_limit
        ~relay_cap:cfg.rwnd_limit ()
    else
      Transport.Proxy.create pstack ~front_port:80
        ~server:(Netsim.Node.addr ch.Netsim.Topology.ch_server)
        ~server_port:90 ()
  in
  let conn =
    Transport.Tcp.stream client
      ~dst:(Netsim.Node.addr ch.Netsim.Topology.ch_proxy)
      ~dst_port:80 ()
  in
  let buffer = Stats.Timeseries.create () in
  ignore @@ Engine.Sim.periodic sim ~interval:cfg.sample_interval (fun () ->
      Stats.Timeseries.add buffer ~time:(Engine.Sim.now sim)
        (float_of_int (Transport.Proxy.occupancy proxy));
      Engine.Sim.now sim < cfg.duration);
  Engine.Sim.run ~until:cfg.duration sim;
  Stats.Meter.stop meter;
  let client_gbps =
    (* Bytes the client pushed into the proxy over the run. *)
    float_of_int (Transport.Proxy.relayed_bytes proxy * 8)
    /. float_of_int cfg.duration
  in
  { buffer; max_buffer = Transport.Proxy.max_occupancy proxy;
    client_gbps; stall = Transport.Tcp.stall_time conn }

type output = {
  unlimited_buffer : Stats.Timeseries.t;
  limited_buffer : Stats.Timeseries.t;
  unlimited_max_buffer : int;
  limited_max_buffer : int;
  unlimited_client_gbps : float;
  limited_client_gbps : float;
  limited_stall : Engine.Time.t;
  growth_rate_gbps : float;
}

let run ?(config = default) () =
  let unlimited = run_variant config ~limited:false in
  let limited = run_variant config ~limited:true in
  let growth_rate_gbps =
    (* Slope between 25% and 100% of the run (skips slow start). *)
    match
      ( Stats.Timeseries.last unlimited.buffer,
        Stats.Timeseries.points unlimited.buffer )
    with
    | Some (t_end, v_end), points ->
      let quarter = t_end / 4 in
      let early =
        List.find_opt (fun (t, _) -> t >= quarter) points
      in
      (match early with
      | Some (t0, v0) when t_end > t0 ->
        (v_end -. v0) *. 8.0 /. float_of_int (t_end - t0)
      | _ -> 0.0)
    | None, _ -> 0.0
  in
  { unlimited_buffer = unlimited.buffer; limited_buffer = limited.buffer;
    unlimited_max_buffer = unlimited.max_buffer;
    limited_max_buffer = limited.max_buffer;
    unlimited_client_gbps = unlimited.client_gbps;
    limited_client_gbps = limited.client_gbps;
    limited_stall = limited.stall; growth_rate_gbps }

let result ?config () =
  let o = run ?config () in
  let table =
    Stats.Table.create
      ~columns:
        [ "variant"; "max proxy buffer (MB)"; "client goodput (Gbps)";
          "client stall (us)" ]
  in
  Stats.Table.add_rowf table "unlimited rwnd | %.2f | %.1f | 0"
    (float_of_int o.unlimited_max_buffer /. 1e6)
    o.unlimited_client_gbps;
  Stats.Table.add_rowf table "limited rwnd | %.2f | %.1f | %.0f"
    (float_of_int o.limited_max_buffer /. 1e6)
    o.limited_client_gbps
    (Engine.Time.to_float_us o.limited_stall);
  Exp_common.make
    ~title:
      "Fig 2: TCP termination - proxy buffering vs HOL blocking \
       (100G in / 40G out)"
    ~series:
      [ { Exp_common.label = "unlimited rwnd buffer (bytes)";
          data = o.unlimited_buffer };
        { Exp_common.label = "limited rwnd buffer (bytes)";
          data = o.limited_buffer } ]
    ~table
    ~notes:
      [ Printf.sprintf
          "unbounded proxy buffer grows at %.1f Gbps (expect ~ front-back = \
           %.0f Gbps)"
          o.growth_rate_gbps
          (float_of_int (default.front_rate - default.back_rate) /. 1e9);
        Printf.sprintf
          "bounded window caps buffer at %.2f MB but holds the 100G client \
           to %.1f Gbps behind the 40G back link (receive-window HOL \
           blocking; zero-window stalls: %.0f us)"
          (float_of_int o.limited_max_buffer /. 1e6)
          o.limited_client_gbps
          (Engine.Time.to_float_us o.limited_stall) ]
    ()
