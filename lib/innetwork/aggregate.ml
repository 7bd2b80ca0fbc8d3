type t = {
  sw : Netsim.Switch.t;
  pool : Netsim.Packet.pool; (* the acks and aggregated packets *)
  ps : Netsim.Packet.addr;
  ps_switch_port : int;
  workers : int;
  (* (round, pkt_num) -> worker ids seen + a template header *)
  partial : (int * int, int list ref * Mtp.Wire.t) Hashtbl.t;
  mutable n_absorbed : int;
  mutable n_injected : int;
  mutable n_rounds : int;
  rounds_seen : (int, unit) Hashtbl.t;
  mutable next_msg : int;
  (* round -> aggregated msg id towards the PS *)
  agg_ids : (int, int) Hashtbl.t;
}

let ack_worker t (h : Mtp.Wire.t) ~worker =
  let ack =
    Mtp.Wire.ack
      ~sack:[ { Mtp.Wire.ref_msg = h.Mtp.Wire.msg_id;
                ref_pkt = h.Mtp.Wire.pkt_num } ]
      ~nack:[] ~tc:0 ~src_port:h.Mtp.Wire.dst_port
      ~dst_port:h.Mtp.Wire.src_port ~msg_id:h.Mtp.Wire.msg_id
      ~ack_path_feedback:h.Mtp.Wire.path_feedback
  in
  (* Route the ACK back through normal forwarding. *)
  Netsim.Switch.receive t.sw
    (Mtp.Wire.packet t.pool ~src:t.ps ~dst:worker ~entity:0 (Mtp.Wire.Mtp ack))

let inject_aggregated t (h : Mtp.Wire.t) ~round =
  let msg_id =
    match Hashtbl.find_opt t.agg_ids round with
    | Some id -> id
    | None ->
      (* Outside the workers' ids, within the header's u32 field. *)
      let id = 0x8000_0000 + t.next_msg in
      t.next_msg <- t.next_msg + 1;
      Hashtbl.add t.agg_ids round id;
      id
  in
  let header =
    { h with
      Mtp.Wire.msg_id;
      cookie2 = t.workers (* aggregated over this many workers *);
      path_feedback = [] }
  in
  t.n_injected <- t.n_injected + 1;
  Netsim.Switch.inject t.sw ~port:t.ps_switch_port
    (Mtp.Wire.packet t.pool
       ~src:t.ps (* the PS sees a fabric-originated message *)
       ~dst:t.ps ~entity:0 (Mtp.Wire.Mtp header))

let install sw ~ps ~ps_port ~ps_switch_port ~workers () =
  let t =
    { sw; pool = Netsim.Packet.pool (Netsim.Switch.sim sw); ps;
      ps_switch_port; workers; partial = Hashtbl.create 64;
      n_absorbed = 0; n_injected = 0; n_rounds = 0;
      rounds_seen = Hashtbl.create 16; next_msg = 0;
      agg_ids = Hashtbl.create 16 }
  in
  Netsim.Switch.add_ingress_hook sw (fun pkt ->
      match pkt.Netsim.Packet.payload with
      | Mtp.Wire.Mtp h
        when (not h.Mtp.Wire.is_ack)
             && pkt.Netsim.Packet.dst = ps
             && h.Mtp.Wire.dst_port = ps_port
             && pkt.Netsim.Packet.src <> ps ->
        let round = h.Mtp.Wire.cookie in
        let worker = h.Mtp.Wire.cookie2 in
        let key = (round, h.Mtp.Wire.pkt_num) in
        t.n_absorbed <- t.n_absorbed + 1;
        ack_worker t h ~worker:pkt.Netsim.Packet.src;
        let seen, template =
          match Hashtbl.find_opt t.partial key with
          | Some entry -> entry
          | None ->
            let entry = (ref [], h) in
            Hashtbl.add t.partial key entry;
            entry
        in
        if not (List.mem worker !seen) then begin
          seen := worker :: !seen;
          if List.length !seen = t.workers then begin
            Hashtbl.remove t.partial key;
            inject_aggregated t template ~round;
            if
              h.Mtp.Wire.pkt_num = 0 && not (Hashtbl.mem t.rounds_seen round)
            then begin
              Hashtbl.replace t.rounds_seen round ();
              t.n_rounds <- t.n_rounds + 1
            end
          end
        end;
        Netsim.Switch.Absorb
      | _ -> Netsim.Switch.Continue);
  t

let absorbed t = t.n_absorbed
let injected t = t.n_injected
let rounds_completed t = t.n_rounds
