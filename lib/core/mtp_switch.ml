type stamp_mode =
  | Ecn_mark of int
  | Ce_echo
  | Queue_depth
  | Delay_report
  | Rate_grant of { capacity : Engine.Time.rate }

(* Periodic RCP-style rate controller for one link: every interval,
   compare arrivals against capacity and drain the standing queue.
   R <- R * (1 + gain * (spare_fraction - queue_drain_fraction)). *)
type rcp_state = { mutable grant_mbps : int; mutable arrived_bytes : int }

let rcp_controller sim link ~capacity =
  let state =
    { grant_mbps = capacity / 2_000_000 (* start at half capacity *);
      arrived_bytes = 0 }
  in
  let interval = Engine.Time.us 50 in
  ignore @@ Engine.Sim.periodic sim ~interval (fun () ->
      let cap_bytes = Engine.Time.bytes_in ~rate:capacity interval in
      let spare =
        float_of_int (cap_bytes - state.arrived_bytes)
        /. float_of_int (Int.max 1 cap_bytes)
      in
      let queue_frac =
        float_of_int ((Netsim.Link.qdisc link).Netsim.Qdisc.byte_length ())
        /. float_of_int (Int.max 1 cap_bytes)
      in
      let factor = 1.0 +. (0.4 *. (spare -. (0.5 *. queue_frac))) in
      let next =
        float_of_int state.grant_mbps *. Float.max 0.5 (Float.min 2.0 factor)
      in
      let cap_mbps = capacity / 1_000_000 in
      state.grant_mbps <- Int.max 10 (Int.min cap_mbps (int_of_float next));
      state.arrived_bytes <- 0;
      true);
  state

let ecn_true = Feedback.Ecn true
let ecn_false = Feedback.Ecn false

(* What one link stamps for one traffic class: its pathlet reference,
   and the one-entry feedback lists a mark or a non-mark makes of a
   header that carries no feedback yet.  Lists are immutable, so every
   packet of the class can share them. *)
type class_stamps = {
  path : Wire.path_ref;
  marked : Wire.path_fb list;
  unmarked : Wire.path_fb list;
}

let class_stamps path =
  { path;
    marked = [ { Wire.fb_path = path; fb = ecn_true } ];
    unmarked = [ { Wire.fb_path = path; fb = ecn_false } ] }

let stamp sim link ~path_id ~mode =
  let rcp =
    match mode with
    | Rate_grant { capacity } -> Some (rcp_controller sim link ~capacity)
    | Ecn_mark _ | Ce_echo | Queue_depth | Delay_report -> None
  in
  let inner = Netsim.Link.qdisc link in
  (* Made the first time a class shows up, so a link that only ever
     sees class 0 holds one. *)
  let classes = ref [||] in
  let class_of tc =
    let known = !classes in
    if tc < Array.length known then known.(tc)
    else if tc land 0xff <> tc then class_stamps { Wire.path_id; path_tc = tc }
    else begin
      let grown =
        Array.init (tc + 1) (fun i ->
            if i < Array.length known then known.(i)
            else class_stamps { Wire.path_id; path_tc = i })
      in
      classes := grown;
      grown.(tc)
    end
  in
  (* The header is stamped in place: it belongs to this packet alone.
     A first stamp takes a shared one-entry list; a later one appends
     by copying, so a shared list is never extended. *)
  let mark (header : Wire.t) cls b =
    match header.Wire.path_feedback with
    | [] ->
      header.Wire.path_feedback <- (if b then cls.marked else cls.unmarked)
    | _ :: _ ->
      Wire.add_feedback header cls.path (if b then ecn_true else ecn_false)
  in
  let on_enqueue (pkt : Netsim.Packet.t) =
    match pkt.Netsim.Packet.payload with
    | Wire.Mtp header when not header.Wire.is_ack ->
      (match rcp with
      | Some state ->
        state.arrived_bytes <- state.arrived_bytes + pkt.Netsim.Packet.size
      | None -> ());
      let cls = class_of header.Wire.msg_tc in
      let depth = inner.Netsim.Qdisc.pkt_length () - 1 in
      (match mode with
      | Ecn_mark threshold -> mark header cls (depth >= threshold)
      | Ce_echo -> mark header cls (Netsim.Packet.ecn_ce pkt)
      | Queue_depth ->
        Wire.add_feedback header cls.path (Feedback.Queue (Int.max 0 depth))
      | Delay_report ->
        let queued = inner.Netsim.Qdisc.byte_length () in
        Wire.add_feedback header cls.path
          (Feedback.Delay
             (Engine.Time.tx_time ~bytes:queued ~rate:(Netsim.Link.rate link)))
      | Rate_grant _ -> (
        match rcp with
        | Some state ->
          Wire.add_feedback header cls.path (Feedback.Rate state.grant_mbps)
        | None -> assert false));
      if Netsim.Packet.trimmed pkt then
        Wire.add_feedback header cls.path Feedback.Trimmed;
      (* The header grew: keep the wire size honest. *)
      pkt.Netsim.Packet.size <-
        Wire.encoded_size header + header.Wire.pkt_len
    | Wire.Mtp _ -> ()
    | _ -> ()
  in
  (* simlint: allow H103 — once per link, at setup *)
  Netsim.Link.set_qdisc link (Netsim.Qdisc.with_hooks ~on_enqueue inner)

let alternate_path sim sw ~dst ~ports ~interval ~fallback =
  let current = ref 0 in
  ignore @@ Engine.Sim.periodic sim ~interval (fun () ->
      current := (!current + 1) mod Array.length ports;
      true);
  Netsim.Switch.set_forward sw (fun pkt ->
      if pkt.Netsim.Packet.dst = dst then
        Netsim.Switch.Forward ports.(!current)
      else fallback pkt)

let excluded_in header port_paths port =
  match List.assoc_opt port port_paths with
  | None -> false
  | Some path_id ->
    List.exists
      (fun (r : Wire.path_ref) -> r.Wire.path_id = path_id)
      header.Wire.path_exclude

let exclusion_aware ~port_paths routes pkt =
  let ports = Netsim.Routing.ports_for routes pkt.Netsim.Packet.dst in
  let n = Array.length ports in
  if n = 0 then Netsim.Switch.Drop
  else
    match pkt.Netsim.Packet.payload with
    | Wire.Mtp header when header.Wire.path_exclude != [] ->
      let allowed =
        Array.to_list ports
        |> List.filter (fun p -> not (excluded_in header port_paths p))
      in
      (match allowed with
      | [] -> Netsim.Switch.Forward ports.(pkt.Netsim.Packet.flow_hash mod n)
      | choices ->
        let k = List.length choices in
        Netsim.Switch.Forward
          (List.nth choices (pkt.Netsim.Packet.flow_hash mod k)))
    | _ -> Netsim.Switch.Forward ports.(pkt.Netsim.Packet.flow_hash mod n)

module Itbl = Hashtbl.Make (Int)

type msg_lb = {
  lb_sw : Netsim.Switch.t;
  lb_ports : int array;
  committed : int array;
  assignments : int array;
  table : int Itbl.t; (* (src, msg_id) -> port index *)
}

(* A port's load is what is still committed to it (announced message
   bytes not yet forwarded) plus what is physically queued on its
   link — without the queue term, back-to-back messages would all pick
   the same port because each commitment drains before the next
   message's first packet arrives. *)
let port_load lb i =
  lb.committed.(i)
  + (Netsim.Link.qdisc (Netsim.Switch.port lb.lb_sw lb.lb_ports.(i)))
      .Netsim.Qdisc.byte_length ()

let msg_lb sw ~dst ~ports ~fallback =
  let lb =
    { lb_sw = sw; lb_ports = ports;
      committed = Array.make (Array.length ports) 0;
      assignments = Array.make (Array.length ports) 0;
      table = Itbl.create 256 }
  in
  Netsim.Switch.set_forward sw (fun pkt ->
      match pkt.Netsim.Packet.payload with
      | Wire.Mtp header
        when (not header.Wire.is_ack) && pkt.Netsim.Packet.dst = dst ->
        (* Msg ids are wire u32s, so the source sits above them. *)
        let key = (pkt.Netsim.Packet.src lsl 32) lor header.Wire.msg_id in
        let idx =
          match Itbl.find_opt lb.table key with
          | Some idx -> idx
          | None ->
            (* First packet of the message: its header announces the
               total length, so commit the whole message to the least
               loaded path (size- and load-aware placement). *)
            let best = ref 0 in
            Array.iteri
              (fun i _ -> if port_load lb i < port_load lb !best then best := i)
              lb.lb_ports;
            Itbl.replace lb.table key !best;
            lb.committed.(!best) <-
              lb.committed.(!best) + header.Wire.msg_len;
            lb.assignments.(!best) <- lb.assignments.(!best) + 1;
            !best
        in
        lb.committed.(idx) <-
          Int.max 0 (lb.committed.(idx) - header.Wire.pkt_len);
        if
          header.Wire.pkt_num = header.Wire.msg_pkts - 1
          (* Last packet seen: forget the message. *)
        then Itbl.remove lb.table key;
        Netsim.Switch.Forward lb.lb_ports.(idx)
      | _ -> fallback pkt);
  lb

let lb_assignments lb = Array.copy lb.assignments
