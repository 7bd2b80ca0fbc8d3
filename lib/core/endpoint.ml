type delivery = {
  dl_src : Netsim.Packet.addr;
  dl_src_port : int;
  dl_dst_port : int;
  dl_msg_id : int;
  dl_size : int;
  dl_cookie : int;
  dl_cookie2 : int;
  dl_pri : int;
  dl_tc : int;
  dl_latency : Engine.Time.t;
}

type pkt_state =
  | Unsent
  | Inflight of { at : Engine.Time.t; charged : Wire.path_ref list; rtx : bool }
  | Lost (* awaiting retransmission *)
  | Acked

(* A pathlet an ack named for a destination, and when it last did. *)
type seen = { s_ref : Wire.path_ref; mutable s_at : Engine.Time.t }

(* Per-destination path state.  [entries] are the pathlets acks named
   for this destination, newest first, and [refs] their references in
   the same order.  [live] caches [live_refs] for one scheduling epoch
   (see [pump]). *)
type dst_paths = {
  mutable entries : seen list;
  mutable refs : Wire.path_ref list;
  mutable live_epoch : int;
  mutable live : Wire.path_ref list;
  mutable lanes : lane list;
}

(* One (destination, traffic class) pair: where a message's packets are
   budgeted.  [ln_refused] is the smallest payload refused there during
   scheduling epoch [ln_epoch].  [ln_ready] counts the lane's messages
   with a next packet, [ln_short] those among them whose next packet is
   shorter than the MTU (see [note_next]). *)
and lane = {
  ln_dst : dst_paths;
  ln_tc : int;
  ln_default : Wire.path_ref list;
  mutable ln_epoch : int;
  mutable ln_refused : int;
  mutable ln_ready : int;
  mutable ln_short : int;
}

(* A message's next packet: none, a full-MTU one, or a shorter one
   (only a message's last packet can be). *)
type readiness = Dry | Full | Short

type txmsg = {
  tx_id : int;
  tx_dst : Netsim.Packet.addr;
  tx_dst_port : int;
  tx_src_port : int;
  tx_pri : int;
  tx_tc : int;
  tx_size : int;
  tx_npkts : int;
  tx_cookie : int;
  tx_cookie2 : int;
  tx_lane : lane;
  states : pkt_state array;
  mutable acked_pkts : int;
  mutable n_inflight : int; (* packets in state Inflight *)
  mutable scan : int; (* all packets below this index are not Unsent *)
  (* Packet numbers awaiting retransmission, a FIFO ring allocated on
     the first loss: a packet is queued only on leaving Inflight, so at
     most [tx_npkts] wait at once. *)
  mutable retx : int array;
  mutable retx_head : int;
  mutable retx_len : int;
  mutable tx_ready : readiness; (* as counted in [tx_lane] *)
  tx_created : Engine.Time.t;
  tx_deadline : Engine.Time.t option; (* absolute; abort past this *)
  mutable tx_last_progress : Engine.Time.t;
  tx_on_complete : (Engine.Time.t -> unit) option;
  tx_on_error : (Engine.Time.t -> unit) option;
}

type rxmsg = {
  rx_src : Netsim.Packet.addr;
  rx_src_port : int;
  rx_dst_port : int;
  rx_id : int;
  rx_size : int;
  rx_npkts : int;
  rx_cookie : int;
  rx_cookie2 : int;
  rx_pri : int;
  rx_tc : int;
  got : Bytes.t; (* bitmap *)
  mutable rx_count : int;
  rx_first : Engine.Time.t;
}

(* Pending coalesced acknowledgement towards one source. *)
type ack_acc = {
  mutable acc_sacks : Wire.pkt_ref list; (* newest first *)
  mutable acc_count : int;
  mutable acc_fb : Wire.path_fb list; (* latest packet's feedback *)
  mutable acc_template : Wire.t; (* ports/msg id for the reply *)
  mutable acc_tm : Engine.Sim.timer;
}

module Itbl = Hashtbl.Make (Int)

type t = {
  ep_node : Netsim.Node.t;
  ep_sim : Engine.Sim.t;
  entity : int;
  mtu : int;
  max_msg_bytes : int;
  exclusion : bool;
  path_table : Pathlet.t;
  mutable next_msg_id : int;
  mutable next_port : int;
  tx_table : txmsg Itbl.t;
  (* The messages of [tx_table] in (pri, id) order, in
     [active.(0 .. n_active - 1)]. *)
  mutable active : txmsg array;
  mutable n_active : int;
  (* Lanes with a ready message, and how many of them are shut during
     scheduling epoch [shut_epoch] (see [refuse]). *)
  mutable n_ready_lanes : int;
  mutable shut_epoch : int;
  mutable n_shut : int;
  (* The pump's scratch: messages that used a whole quantum last round. *)
  mutable again : txmsg array;
  mutable n_again : int;
  nil_msg : txmsg; (* fills the unused tails of both arrays *)
  mutable epoch : int;
  (* The advisory exclusion list, valid while [excl_epoch = epoch] and
     no pathlet is suspect (see [exclusion_list]). *)
  mutable excl_epoch : int;
  mutable excl : Wire.path_ref list;
  dests : dst_paths Itbl.t;
  (* Receiver state keyed by [rx_key]. *)
  rx_table : rxmsg Itbl.t;
  recent_done : unit Itbl.t;
  recent_queue : int Queue.t;
  bindings : (delivery -> unit) Itbl.t;
  ack_every : int;
  ack_delay : Engine.Time.t;
  ack_acc : ack_acc Itbl.t;
  mutable ticker_running : bool;
  (* counters *)
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_delivered : int;
  mutable n_delivered_bytes : int;
  mutable n_retransmits : int;
  mutable n_timeouts : int;
  mutable n_nacks : int;
  mutable n_rejected : int;
  mutable n_acks_tx : int;
}

(* Payload bytes per packet, and the cap on partially received
   messages a receiver tracks (beyond it new messages are rejected). *)
let mtu_payload = 1440
let max_rx_messages = 1 lsl 20

let node t = t.ep_node
let sim t = t.ep_sim
let pathlets t = t.path_table

let now t = Engine.Sim.now t.ep_sim

(* ------------------------------------------------------------------ *)
(* Telemetry probes.  All sites are guarded by [Telemetry.Ctx.on]: one
   branch when disabled, nothing allocated.  Events use point ["mtp"];
   per-endpoint gauges are registered under ["mtp.h<addr>."]. *)

let probe_event t ~kind ~dst ~size ~a ~b =
  (* simlint: allow T201 — emit helper, every caller guards with Ctx.on *)
  Telemetry.Events.emit
    (Telemetry.Ctx.events ())
    ~at:(now t) ~kind ~point:"mtp" ~uid:(-1)
    ~src:(Netsim.Node.addr t.ep_node) ~dst ~size ~a ~b

let rtt_hist () =
  (* simlint: allow T201 — helper, every caller guards with Ctx.on *) (* simlint: allow P102 — same audit: the Ctx.on guard sits at each call site *)
  Telemetry.Registry.histogram
    (Telemetry.Ctx.metrics ())
    (* simlint: allow H103 — same audit: traced runs only *)
    ~scale:`Log ~lo:1.0 ~hi:1e6 ~buckets:60 "mtp.rtt_us"

let msg_latency_hist () =
  (* simlint: allow T201 — helper, every caller guards with Ctx.on *)
  Telemetry.Registry.histogram
    (Telemetry.Ctx.metrics ())
    (* simlint: allow H103 — same audit: traced runs only *)
    ~scale:`Log ~lo:1.0 ~hi:1e7 ~buckets:70 "mtp.msg_latency_us"

(* ------------------------------------------------------------------ *)
(* Bitmap helpers                                                       *)

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let byte = i lsr 3 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl (i land 7))))

(* ------------------------------------------------------------------ *)
(* Path state                                                           *)

let default_path tc = [ { Wire.path_id = 0; path_tc = tc } ]

(* A pathlet stays "live" for a destination while acks keep naming it;
   after a few RTTs of silence (e.g. the network moved the path) it
   expires and stops constraining or crediting the send budget.  Two
   failure-handling exceptions: a pathlet with outstanding flight or
   accumulated RTO strikes is kept past its TTL — an outage silences
   acks for every pathlet at once, and expiring them would shift all
   blame onto the meaningless default path ref — while a suspect
   pathlet is dropped even inside its TTL (it must neither carry
   charges nor inflate the message RTO; revival probes address it
   directly). *)
let is_live t time s =
  let r = s.s_ref in
  (not (Pathlet.suspect t.path_table r))
  &&
  let ttl =
    Int.max (Engine.Time.us 20) (4 * Cc.srtt (Pathlet.get t.path_table r))
  in
  time - s.s_at <= ttl
  || Pathlet.inflight t.path_table r > 0
  || Pathlet.strikes t.path_table r > 0

let rec all_live t time = function
  | [] -> true
  | s :: rest -> is_live t time s && all_live t time rest

(* The cached [refs] when every entry is live (no allocation), else a
   filtered copy. *)
let live_refs t d =
  let time = Engine.Sim.now t.ep_sim in
  if all_live t time d.entries then d.refs
  else
    List.filter_map
      (fun s -> if is_live t time s then Some s.s_ref else None)
      d.entries

let path_for t ~dst ~tc =
  match Itbl.find_opt t.dests dst with
  | Some d -> (
    match live_refs t d with [] -> default_path tc | refs -> refs)
  | None -> default_path tc

let current_path t ~dst = path_for t ~dst ~tc:0

let dst_paths t dst =
  match Itbl.find t.dests dst with
  | d -> d
  | exception Not_found ->
    let d =
      { entries = []; refs = []; live_epoch = -1; live = []; lanes = [] }
    in
    Itbl.add t.dests dst d;
    d

let lane_for t ~dst ~tc =
  let d = dst_paths t dst in
  match List.find (fun ln -> ln.ln_tc = tc) d.lanes with
  | ln -> ln
  | exception Not_found ->
    let ln =
      { ln_dst = d; ln_tc = tc; ln_default = default_path tc; ln_epoch = -1;
        ln_refused = 0; ln_ready = 0; ln_short = 0 }
    in
    d.lanes <- ln :: d.lanes;
    ln

(* [path_for] of the lane, computing the live set at most once per
   scheduling epoch. *)
let lane_path t ln =
  let d = ln.ln_dst in
  if d.live_epoch <> t.epoch then begin
    d.live <- live_refs t d;
    d.live_epoch <- t.epoch
  end;
  match d.live with [] -> ln.ln_default | refs -> refs

(* Stamp the pathlets [fbs] names, in order of first mention, onto the
   head of [entries] while they match it in order; false at the first
   mismatch. *)
let rec restamp time fbs cells entries =
  match cells with
  | [] -> true
  | { Wire.fb_path; _ } :: rest ->
    if not (Wire.first_mention fbs cells) then restamp time fbs rest entries
    else (
      match entries with
      | s :: more when Wire.same_path s.s_ref fb_path ->
        s.s_at <- time;
        restamp time fbs rest more
      | _ :: _ | [] -> false)

(* An ack's feedback names the pathlets its data packet crossed: they
   move to the front of the destination's list, newest first, stamped
   now.  On a stable path they already head it in the same order, and
   the stamps are updated in place. *)
let note_paths t ~dst fbs =
  let time = Engine.Sim.now t.ep_sim in
  let d = dst_paths t dst in
  if not (restamp time fbs fbs d.entries) then begin
    let rec named = function
      | [] -> []
      | ({ Wire.fb_path; _ } :: rest) as cells ->
        if Wire.first_mention fbs cells then fb_path :: named rest
        else named rest
    in
    let refs = named fbs in
    let kept =
      List.filter
        (fun s -> not (List.exists (Wire.same_path s.s_ref) refs))
        d.entries
    in
    let fresh = List.rev_map (fun r -> { s_ref = r; s_at = time }) refs in
    d.entries <- List.rev_append fresh kept;
    d.refs <- List.map (fun s -> s.s_ref) d.entries
  end

(* ------------------------------------------------------------------ *)
(* Packet geometry: packets carry [mtu] bytes except the last.          *)

let pkt_payload t msg pkt_num =
  let full = t.mtu in
  if pkt_num < msg.tx_npkts - 1 then full
  else msg.tx_size - (full * (msg.tx_npkts - 1))

(* ------------------------------------------------------------------ *)
(* Emission                                                             *)

let emit_header t ~dst header =
  let pkt =
    Wire.packet t.ep_sim ~src:(Netsim.Node.addr t.ep_node) ~dst
      ~entity:t.entity header
  in
  Netsim.Node.send t.ep_node pkt

let rec any_idle tbl = function
  | [] -> false
  | r :: rest -> Pathlet.inflight tbl r = 0 || any_idle tbl rest

(* The exclusion list names congested and suspect pathlets, at most
   [max_excluded] so headers stay small. *)
let max_excluded = 4

(* No suspects: the first [max_excluded] congested pathlets, last
   first.  The full advisory list goes out even when it names every
   known pathlet (the network may have alternatives the sender cannot
   see). *)
let rec advisory n acc = function
  | r :: rest when n < max_excluded -> advisory (n + 1) (r :: acc) rest
  | _ :: _ | [] -> acc

let rec mem_path r = function
  | [] -> false
  | p :: rest -> Wire.same_path p r || mem_path r rest

(* Suspects must appear even after their loss signal ages out of
   [congested_paths], or the network would steer traffic straight back
   onto a dead path.  They lead: they are hard-dead, congestion is
   advisory.  While a suspect is being excluded the list is a routing
   constraint — if advisory entries then covered every live pathlet too,
   the switch's all-excluded fallback (plain flow hash) would steer
   traffic straight back onto the dead pathlet, so congestion entries
   that would complete such a cover are dropped. *)
let with_suspects t ~path sus =
  let congested = Pathlet.congested_paths t.path_table ~now:(now t) in
  let merged =
    (* simlint: allow H101 — per packet only while a pathlet is suspect *)
    sus @ List.filter (fun r -> not (mem_path r sus)) congested
  in
  let covers l = path != [] && List.for_all (fun r -> mem_path r l) path in
  List.fold_left
    (fun acc r ->
      if
        List.length acc >= max_excluded
        || ((not (mem_path r sus)) && covers (r :: acc))
      then acc
      else r :: acc)
    [] merged

(* With no suspects the list depends on congestion state alone, which
   is fixed within a scheduling epoch (see [refused]): compute it once
   per epoch. *)
let exclusion_list t ~path =
  match Pathlet.suspects t.path_table with
  | [] ->
    if t.excl_epoch <> t.epoch then begin
      t.excl <-
        advisory 0 [] (Pathlet.congested_paths t.path_table ~now:(now t));
      t.excl_epoch <- t.epoch
    end;
    t.excl
  | sus -> with_suspects t ~path sus

(* [path] is the message's live path set, as the pump just budgeted. *)
let send_data_pkt t msg pkt_num ~path ~rtx =
  let payload = pkt_payload t msg pkt_num in
  (* A suspect pathlet due for a revival probe carries this packet: the
     header excludes every other pathlet so exclusion-aware switches
     actually route it over the suspect one, and an ack coming back
     clears the suspicion via [note_progress]. *)
  let probe = Pathlet.probe_target t.path_table ~now:(now t) in
  let exclude =
    match probe with
    | Some pr -> List.filter (fun r -> not (Wire.same_path r pr)) path
    | None -> if t.exclusion then exclusion_list t ~path else []
  in
  let header =
    Wire.data ~pri:msg.tx_pri ~tc:msg.tx_tc ~cookie:msg.tx_cookie
      ~cookie2:msg.tx_cookie2 ~exclude ~src_port:msg.tx_src_port
      ~dst_port:msg.tx_dst_port ~msg_id:msg.tx_id ~msg_len:msg.tx_size
      ~msg_pkts:msg.tx_npkts ~pkt_num ~pkt_offset:(pkt_num * t.mtu)
      ~pkt_len:payload
  in
  let charged =
    match probe with
    | Some pr -> [ pr ]
    | None -> Pathlet.best_of t.path_table path
  in
  (* A pathlet leaving zero flight may turn live again for any
     destination that lists it past its TTL, growing that destination's
     budget: start a new epoch so no cached path set or refusal
     outlives this charge. *)
  if any_idle t.path_table charged then t.epoch <- t.epoch + 1;
  Pathlet.charge t.path_table charged payload;
  msg.states.(pkt_num) <- Inflight { at = now t; charged; rtx };
  msg.n_inflight <- msg.n_inflight + 1;
  msg.tx_last_progress <- now t;
  if rtx then t.n_retransmits <- t.n_retransmits + 1;
  if Telemetry.Ctx.on () then begin
    probe_event t ~kind:Telemetry.Events.Send ~dst:msg.tx_dst ~size:payload
      ~a:pkt_num ~b:msg.tx_id;
    (match charged with
    | { Wire.path_id; path_tc } :: _ ->
      probe_event t ~kind:Telemetry.Events.Steer ~dst:msg.tx_dst
        ~size:payload ~a:path_id ~b:path_tc
    | [] -> ());
    if exclude != [] then
      probe_event t ~kind:Telemetry.Events.Exclude ~dst:msg.tx_dst
        ~size:(List.length exclude) ~a:(List.hd exclude).Wire.path_id
        ~b:msg.tx_tc
  end;
  emit_header t ~dst:msg.tx_dst header

(* ------------------------------------------------------------------ *)
(* The send queue                                                       *)

(* The next packet to send (a retransmission first), or -1. *)
let next_pkt msg =
  if msg.retx_len > 0 then msg.retx.(msg.retx_head)
  else if msg.scan < msg.tx_npkts then msg.scan
  else -1

(* The pump's bookkeeping, run after every change to [msg]'s next
   packet: its lane's [ln_ready] and [ln_short], and the endpoint's
   count of lanes with a ready message. *)
let note_next t msg =
  let p = next_pkt msg in
  let r =
    if p < 0 then Dry else if pkt_payload t msg p < t.mtu then Short else Full
  in
  let was = msg.tx_ready in
  if r <> was then begin
    let ln = msg.tx_lane in
    msg.tx_ready <- r;
    if was = Short then ln.ln_short <- ln.ln_short - 1;
    if r = Short then ln.ln_short <- ln.ln_short + 1;
    if was = Dry then begin
      if ln.ln_ready = 0 then t.n_ready_lanes <- t.n_ready_lanes + 1;
      ln.ln_ready <- ln.ln_ready + 1
    end
    else if r = Dry then begin
      ln.ln_ready <- ln.ln_ready - 1;
      if ln.ln_ready = 0 then t.n_ready_lanes <- t.n_ready_lanes - 1
    end
  end

let push_retx t msg i =
  if Array.length msg.retx = 0 then msg.retx <- Array.make msg.tx_npkts 0;
  let cap = Array.length msg.retx in
  msg.retx.((msg.retx_head + msg.retx_len) mod cap) <- i;
  msg.retx_len <- msg.retx_len + 1;
  note_next t msg

let take_next t msg =
  if msg.retx_len > 0 then begin
    msg.retx_head <- (msg.retx_head + 1) mod Array.length msg.retx;
    msg.retx_len <- msg.retx_len - 1
  end
  else msg.scan <- msg.scan + 1;
  note_next t msg

(* Ids only grow, so a new message goes after every message of its
   priority or a more urgent one. *)
let insert_active t msg =
  let n = t.n_active in
  if n = Array.length t.active then begin
    let bigger = Array.make (Int.max 8 (2 * n)) t.nil_msg in
    Array.blit t.active 0 bigger 0 n;
    t.active <- bigger
  end;
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.active.(mid).tx_pri <= msg.tx_pri then lo := mid + 1 else hi := mid
  done;
  Array.blit t.active !lo t.active (!lo + 1) (n - !lo);
  t.active.(!lo) <- msg;
  t.n_active <- n + 1

(* A finished or failed message leaves [active] at once: its slot is
   found by (pri, id) and the tail closes over it. *)
let remove_active t msg =
  let n = t.n_active in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let m = t.active.(mid) in
    if m.tx_pri < msg.tx_pri || (m.tx_pri = msg.tx_pri && m.tx_id < msg.tx_id)
    then lo := mid + 1
    else hi := mid
  done;
  let i = !lo in
  assert (i < n && t.active.(i) == msg);
  Array.blit t.active (i + 1) t.active i (n - i - 1);
  t.active.(n - 1) <- t.nil_msg;
  t.n_active <- n - 1

(* ------------------------------------------------------------------ *)
(* Message failure (deadline exceeded)                                  *)

let fail_message t msg =
  Array.iteri
    (fun i st ->
      match st with
      | Inflight { charged; _ } ->
        Pathlet.discharge t.path_table charged (pkt_payload t msg i)
      | Unsent | Lost | Acked -> ())
    msg.states;
  Itbl.remove t.tx_table msg.tx_id;
  (* Nothing more goes out for it. *)
  msg.scan <- msg.tx_npkts;
  msg.retx_len <- 0;
  note_next t msg;
  remove_active t msg;
  t.n_failed <- t.n_failed + 1;
  if Telemetry.Ctx.on () then
    probe_event t ~kind:Telemetry.Events.Fail ~dst:msg.tx_dst ~size:msg.tx_size
      ~a:msg.tx_id
      ~b:(int_of_float (Engine.Time.to_float_us (now t - msg.tx_created)));
  match msg.tx_on_error with
  | Some f -> f (now t - msg.tx_created)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The send pump                                                        *)

(* Per-round quantum: how many packets one message may send before the
   pump moves to the next message of the same priority.  Round-robin
   with a small quantum approximates processor sharing among
   equal-priority messages, so a message never waits for a whole
   earlier message to finish (higher priorities still strictly
   preempt, since the list is priority-ordered and rescanned every
   round). *)
let quantum = 4

(* Within one scheduling epoch no ack is processed and neither the
   clock nor the suspect set moves; charging only adds flight.  So a
   lane's live path set is fixed and its headroom never grows, and a
   payload refused there stays refused for the rest of the epoch, as
   does every payload at least as large.  The one way a path set can
   grow — a pathlet leaving zero flight and so outliving its TTL — opens
   a new epoch ([send_data_pkt]). *)
let refused t ln payload = ln.ln_epoch = t.epoch && payload >= ln.ln_refused

(* A lane that refuses while none of its ready messages has a short
   next packet is shut for the epoch: each of those packets is a full
   MTU, at least the refused payload, so [refused] blocks them all, and
   within the epoch no next packet changes but by sending.  A new epoch
   reopens every lane, as it lapses every refusal. *)
let refuse t ln payload =
  if ln.ln_epoch <> t.epoch then begin
    ln.ln_epoch <- t.epoch;
    ln.ln_refused <- payload
  end
  else if payload < ln.ln_refused then ln.ln_refused <- payload;
  if ln.ln_short = 0 then
    if t.shut_epoch <> t.epoch then begin
      t.shut_epoch <- t.epoch;
      t.n_shut <- 1
    end
    else t.n_shut <- t.n_shut + 1

(* Lanes where a visit may still send this epoch. *)
let open_lanes t =
  if t.shut_epoch = t.epoch then t.n_ready_lanes - t.n_shut
  else t.n_ready_lanes

(* Send up to [quantum] packets of [msg]; true when it used them all. *)
let send_quantum t msg =
  let ln = msg.tx_lane in
  let sent = ref 0 and blocked = ref false in
  while (not !blocked) && !sent < quantum do
    let p = next_pkt msg in
    if p < 0 then blocked := true
    else begin
      let payload = pkt_payload t msg p in
      if refused t ln payload then blocked := true
      else begin
        (* Sum across live pathlets: the network may be spreading our
           messages over several of them concurrently. *)
        let path = lane_path t ln in
        if payload <= Pathlet.headroom_sum t.path_table path then begin
          let rtx = match msg.states.(p) with Unsent -> false | _ -> true in
          take_next t msg;
          send_data_pkt t msg p ~path ~rtx;
          incr sent
        end
        else begin
          refuse t ln payload;
          blocked := true
        end
      end
    end
  done;
  !sent = quantum

let nil_msg () =
  let nowhere =
    { entries = []; refs = []; live_epoch = -1; live = []; lanes = [] }
  in
  { tx_id = -1; tx_dst = -1; tx_dst_port = 0; tx_src_port = 0; tx_pri = 0;
    tx_tc = 0; tx_size = 0; tx_npkts = 0; tx_cookie = 0; tx_cookie2 = 0;
    tx_lane =
      { ln_dst = nowhere; ln_tc = 0; ln_default = []; ln_epoch = -1;
        ln_refused = 0; ln_ready = 0; ln_short = 0 };
    states = [||]; acked_pkts = 0; n_inflight = 0; scan = 0; retx = [||];
    retx_head = 0; retx_len = 0; tx_ready = Dry; tx_created = 0;
    tx_deadline = None; tx_last_progress = 0; tx_on_complete = None;
    tx_on_error = None }

let push_again t msg =
  if t.n_again = Array.length t.again then begin
    let bigger = Array.make (Int.max 8 (2 * t.n_again)) t.nil_msg in
    Array.blit t.again 0 bigger 0 t.n_again;
    t.again <- bigger
  end;
  t.again.(t.n_again) <- msg;
  t.n_again <- t.n_again + 1

(* Active messages in (pri, id) order while a ready lane is open: past
   that point every visit is refused or has nothing to send. *)
let full_round t =
  Array.fill t.again 0 t.n_again t.nil_msg;
  t.n_again <- 0;
  let i = ref 0 in
  while !i < t.n_active && open_lanes t > 0 do
    let msg = t.active.(!i) in
    if send_quantum t msg then push_again t msg;
    incr i
  done

(* Only last round's quantum users, in the same order: every other
   message was refused or ran dry, and stays so within the epoch. *)
let again_round t =
  let n = t.n_again in
  t.n_again <- 0;
  for i = 0 to n - 1 do
    let msg = t.again.(i) in
    if send_quantum t msg then begin
      t.again.(t.n_again) <- msg;
      t.n_again <- t.n_again + 1
    end
  done;
  Array.fill t.again t.n_again (n - t.n_again) t.nil_msg

let rec max_rto tbl acc = function
  | [] -> acc
  | r :: rest -> max_rto tbl (Int.max acc (Cc.rto (Pathlet.get tbl r))) rest

(* Rounds repeat while a message may still send.  A round that opened
   a new epoch is followed by a full one, since any refusal may have
   lapsed. *)
let rec pump t =
  t.epoch <- t.epoch + 1;
  let epoch = ref t.epoch in
  full_round t;
  while t.n_again > 0 || t.epoch <> !epoch do
    let renewed = t.epoch <> !epoch in
    epoch := t.epoch;
    if renewed then full_round t else again_round t
  done;
  ensure_ticker t

(* ------------------------------------------------------------------ *)
(* Retransmission timer                                                 *)

and ensure_ticker t =
  if (not t.ticker_running) && Itbl.length t.tx_table > 0 then begin
    t.ticker_running <- true;
    ignore
      (Engine.Sim.periodic t.ep_sim ~interval:(Engine.Time.us 100) (fun () ->
           if Itbl.length t.tx_table = 0 then begin
             t.ticker_running <- false;
             false
           end
           else begin
             check_timeouts t;
             true
           end))
  end

and check_timeouts t =
  let time = now t in
  (* Both sweeps collect from the hash table and then sort by message
     id before acting, so failure/retransmit event order is a function
     of the ids, never of OCaml's hash layout. *)
  let by_id = List.sort (fun a b -> compare a.tx_id b.tx_id) in
  (* Deadline sweep first: a message past its deadline is aborted even
     if it is merely window-blocked and could never time out. *)
  let dead = ref [] in
  (* simlint: allow D001 — collected messages are sorted by tx_id below *)
  Itbl.iter
    (fun _ msg ->
      match msg.tx_deadline with
      | Some d when time >= d -> dead := msg :: !dead
      | _ -> ())
    t.tx_table;
  List.iter (fail_message t) (by_id !dead);
  (* The aborts above discharged flight; path sets are read afresh. *)
  t.epoch <- t.epoch + 1;
  let expired = ref [] in
  (* simlint: allow D001 — collected messages are sorted by tx_id below *)
  Itbl.iter
    (fun _ msg ->
      (* Only messages with packets actually in the network can time
         out; a message merely blocked on the window is not stalled. *)
      if msg.n_inflight > 0 then begin
        let rto = max_rto t.path_table 0 (lane_path t msg.tx_lane) in
        if time - msg.tx_last_progress > rto then expired := msg :: !expired
      end)
    t.tx_table;
  expired := by_id !expired;
  List.iter
    (fun msg ->
      t.n_timeouts <- t.n_timeouts + 1;
      if Telemetry.Ctx.on () then
        probe_event t ~kind:Telemetry.Events.Rto ~dst:msg.tx_dst ~size:0
          ~a:msg.tx_id ~b:t.n_timeouts;
      msg.tx_last_progress <- time;
      (* All in-flight packets of this message are presumed lost.  The
         loss (and the health strike) is attributed to the pathlets the
         expired packets were actually charged to, not the whole
         current path set — a timeout on a dead pathlet must not
         penalise the healthy one carrying the rest of the traffic. *)
      let blamed = ref [] in
      Array.iteri
        (fun i st ->
          match st with
          | Inflight { charged; _ } ->
            Pathlet.discharge t.path_table charged (pkt_payload t msg i);
            List.iter
              (fun r -> if not (mem_path r !blamed) then blamed := r :: !blamed)
              charged;
            msg.states.(i) <- Lost;
            msg.n_inflight <- msg.n_inflight - 1;
            push_retx t msg i
          | Unsent | Lost | Acked -> ())
        msg.states;
      List.iter
        (fun r -> Cc.on_loss (Pathlet.get t.path_table r) ~now:time)
        !blamed;
      Pathlet.note_timeout t.path_table !blamed ~now:time)
    !expired;
  if !expired != [] then pump t

(* ------------------------------------------------------------------ *)
(* ACK processing (sender side)                                         *)

let remember_done t key =
  Itbl.replace t.recent_done key ();
  Queue.push key t.recent_queue;
  if Queue.length t.recent_queue > 4096 then
    let old = Queue.pop t.recent_queue in
    Itbl.remove t.recent_done old

let finish_message t msg =
  Itbl.remove t.tx_table msg.tx_id;
  note_next t msg;
  remove_active t msg;
  t.n_completed <- t.n_completed + 1;
  if Telemetry.Ctx.on () then begin
    let latency_us = Engine.Time.to_float_us (now t - msg.tx_created) in
    Stats.Histogram.add (msg_latency_hist ()) latency_us;
    probe_event t ~kind:Telemetry.Events.Complete ~dst:msg.tx_dst
      ~size:msg.tx_size ~a:msg.tx_id ~b:(int_of_float latency_us)
  end;
  match msg.tx_on_complete with
  | Some f -> f (now t - msg.tx_created)
  | None -> ()

(* SACKed packets.  [fbs] is the ack's path feedback, [tc] its traffic
   class. *)
let rec ack_sacks t fbs tc = function
  | [] -> ()
  | { Wire.ref_msg; ref_pkt } :: rest ->
    (match Itbl.find t.tx_table ref_msg with
    | exception Not_found -> ()
    | msg -> (
      match msg.states.(ref_pkt) with
      | Inflight { at; charged; rtx } ->
        let payload = pkt_payload t msg ref_pkt in
        Pathlet.discharge t.path_table charged payload;
        (* Forward progress clears health strikes (and any suspect flag
           — this is how a probe revives a recovered pathlet).  When the
           ack carries path feedback, the pathlets the network reported
           traversing get the credit: that is the physical truth,
           whereas [charged] is only the sender's steering guess —
           crediting the guess would both revive a dead pathlet from a
           rerouted probe's ack and starve the healthy pathlet of resets
           while it carries misattributed blame. *)
        (match fbs with
        | [] -> Pathlet.note_progress t.path_table charged
        | _ :: _ -> Pathlet.note_progress_fb t.path_table fbs);
        msg.states.(ref_pkt) <- Acked;
        msg.n_inflight <- msg.n_inflight - 1;
        msg.acked_pkts <- msg.acked_pkts + 1;
        msg.tx_last_progress <- now t;
        let rtt = if rtx then -1 else now t - at in
        if rtt >= 0 && Telemetry.Ctx.on () then
          Stats.Histogram.add (rtt_hist ()) (Engine.Time.to_float_us rtt);
        Pathlet.on_ack t.path_table ~now:(now t) ~acked:payload ~rtt
          ~implicit_trim:false ~tc fbs;
        if msg.acked_pkts = msg.tx_npkts then finish_message t msg
      | Lost | Acked | Unsent -> ()));
    ack_sacks t fbs tc rest

(* NACKed packets: retransmit promptly; congestion already flows in via
   the echoed Trimmed/ECN feedback, or, when no hop annotated the path,
   a trim the NACK implies. *)
let rec ack_nacks t fbs tc = function
  | [] -> ()
  | { Wire.ref_msg; ref_pkt } :: rest ->
    t.n_nacks <- t.n_nacks + 1;
    (match Itbl.find t.tx_table ref_msg with
    | exception Not_found -> ()
    | msg -> (
      match msg.states.(ref_pkt) with
      | Inflight { charged; _ } ->
        Pathlet.discharge t.path_table charged (pkt_payload t msg ref_pkt);
        msg.states.(ref_pkt) <- Lost;
        msg.n_inflight <- msg.n_inflight - 1;
        push_retx t msg ref_pkt;
        msg.tx_last_progress <- now t;
        Pathlet.on_ack t.path_table ~now:(now t) ~acked:0 ~rtt:(-1)
          ~implicit_trim:true ~tc fbs
      | Lost | Acked | Unsent -> ()));
    ack_nacks t fbs tc rest

let process_ack t (header : Wire.t) (pkt : Netsim.Packet.t) =
  let fbs = header.Wire.ack_path_feedback in
  (* The network just told us which pathlets this destination's path
     crosses; remember them for window gating. *)
  (match fbs with
  | [] -> ()
  | _ :: _ -> note_paths t ~dst:pkt.Netsim.Packet.src fbs);
  ack_sacks t fbs header.Wire.msg_tc header.Wire.sack;
  ack_nacks t fbs header.Wire.msg_tc header.Wire.nack;
  pump t

(* ------------------------------------------------------------------ *)
(* Data processing (receiver side)                                      *)

let emit_ack t ~dst (template : Wire.t) ~sacks ~nacks ~fb =
  let ack =
    Wire.ack ~sack:sacks ~nack:nacks ~tc:template.Wire.msg_tc
      ~src_port:template.Wire.dst_port ~dst_port:template.Wire.src_port
      ~msg_id:template.Wire.msg_id ~ack_path_feedback:fb
  in
  t.n_acks_tx <- t.n_acks_tx + 1;
  emit_header t ~dst ack

let flush_acks t ~dst acc =
  Engine.Sim.disarm acc.acc_tm;
  if acc.acc_count > 0 then begin
    emit_ack t ~dst acc.acc_template ~sacks:(List.rev acc.acc_sacks)
      ~nacks:[] ~fb:acc.acc_fb;
    acc.acc_sacks <- [];
    acc.acc_count <- 0;
    acc.acc_fb <- []
  end

(* Acknowledge the packet [this] (a NACK when [nack]): immediately, or
   accumulated when coalescing is enabled (paper section 4: "feedback
   can be aggregated").  NACKs and urgent acks always flush at once. *)
let send_ack t ~dst (header : Wire.t) ~urgent ~nack this =
  if t.ack_every <= 1 || nack || urgent then begin
    (* Flush anything pending first so ordering stays sane. *)
    (match Itbl.find t.ack_acc dst with
    | acc -> flush_acks t ~dst acc
    | exception Not_found -> ());
    let one = [ this ] in
    emit_ack t ~dst header
      ~sacks:(if nack then [] else one)
      ~nacks:(if nack then one else [])
      ~fb:header.Wire.path_feedback
  end
  else begin
    let acc =
      match Itbl.find t.ack_acc dst with
      | acc -> acc
      | exception Not_found ->
        let acc =
          { acc_sacks = []; acc_count = 0; acc_fb = []; acc_template = header;
            acc_tm = Engine.Sim.timer t.ep_sim ignore }
        in
        acc.acc_tm <- Engine.Sim.timer t.ep_sim (fun () -> flush_acks t ~dst acc);
        Itbl.add t.ack_acc dst acc;
        acc
    in
    acc.acc_template <- header;
    acc.acc_sacks <- this :: acc.acc_sacks;
    acc.acc_count <- acc.acc_count + 1;
    (match header.Wire.path_feedback with
    | [] -> ()
    | fb -> acc.acc_fb <- fb);
    if acc.acc_count >= t.ack_every then flush_acks t ~dst acc
    else if not (Engine.Sim.armed acc.acc_tm) then
      Engine.Sim.arm_after acc.acc_tm t.ack_delay
  end

let deliver t rx =
  t.n_delivered <- t.n_delivered + 1;
  match Itbl.find_opt t.bindings rx.rx_dst_port with
  | None -> ()
  | Some callback ->
    callback
      { dl_src = rx.rx_src; dl_src_port = rx.rx_src_port;
        dl_dst_port = rx.rx_dst_port; dl_msg_id = rx.rx_id;
        dl_size = rx.rx_size; dl_cookie = rx.rx_cookie;
        dl_cookie2 = rx.rx_cookie2; dl_pri = rx.rx_pri; dl_tc = rx.rx_tc;
        dl_latency = now t - rx.rx_first }

(* Receiver state key: msg ids are wire u32s, so the source address
   sits above them. *)
let rx_key ~src ~msg_id = (src lsl 32) lor msg_id

let receive t ~src (header : Wire.t) key this rx =
  if not (bit_get rx.got header.Wire.pkt_num) then begin
    bit_set rx.got header.Wire.pkt_num;
    rx.rx_count <- rx.rx_count + 1;
    t.n_delivered_bytes <- t.n_delivered_bytes + header.Wire.pkt_len
  end;
  let complete = rx.rx_count = rx.rx_npkts in
  (* A message-completing packet flushes immediately so the sender
     finishes without waiting out the coalescing delay. *)
  send_ack t ~dst:src header ~urgent:complete ~nack:false this;
  if complete then begin
    Itbl.remove t.rx_table key;
    remember_done t key;
    deliver t rx
  end

let process_data t (header : Wire.t) (pkt : Netsim.Packet.t) =
  let src = pkt.Netsim.Packet.src in
  let key = rx_key ~src ~msg_id:header.Wire.msg_id in
  let this =
    { Wire.ref_msg = header.Wire.msg_id; ref_pkt = header.Wire.pkt_num }
  in
  if Netsim.Packet.trimmed pkt then
    (* NDP-style: the payload is gone; tell the sender immediately. *)
    send_ack t ~dst:src header ~urgent:false ~nack:true this
  else if Itbl.mem t.recent_done key then
    (* Duplicate of a completed message: re-ACK so the sender stops. *)
    send_ack t ~dst:src header ~urgent:false ~nack:false this
  else
    match Itbl.find t.rx_table key with
    | rx -> receive t ~src header key this rx
    | exception Not_found ->
      if
        header.Wire.msg_len > t.max_msg_bytes
        || Itbl.length t.rx_table >= max_rx_messages
      then t.n_rejected <- t.n_rejected + 1
      else begin
        (* The header announces the full geometry up front, so the
           receiver allocates exactly one bitmap — the bounded buffering
           property of §2.2. *)
        let rx =
          { rx_src = src; rx_src_port = header.Wire.src_port;
            rx_dst_port = header.Wire.dst_port; rx_id = header.Wire.msg_id;
            rx_size = header.Wire.msg_len; rx_npkts = header.Wire.msg_pkts;
            rx_cookie = header.Wire.cookie; rx_cookie2 = header.Wire.cookie2;
            rx_pri = header.Wire.msg_pri; rx_tc = header.Wire.msg_tc;
            got = Bytes.make ((header.Wire.msg_pkts + 7) / 8) '\000';
            rx_count = 0; rx_first = now t }
        in
        Itbl.add t.rx_table key rx;
        receive t ~src header key this rx
      end

(* ------------------------------------------------------------------ *)
(* Construction & API                                                   *)

let rec any_ours tx_table = function
  | [] -> false
  | { Wire.ref_msg; _ } :: rest ->
    Itbl.mem tx_table ref_msg || any_ours tx_table rest

let concerns_us t (header : Wire.t) =
  if header.Wire.is_ack then
    any_ours t.tx_table header.Wire.sack || any_ours t.tx_table header.Wire.nack
  else Itbl.mem t.bindings header.Wire.dst_port

let claim t pkt =
  match pkt.Netsim.Packet.payload with
  | Wire.Mtp header when concerns_us t header ->
    if header.Wire.is_ack then process_ack t header pkt
    else process_data t header pkt;
    true
  | _ -> false

let attach ?(algo = Cc.Dctcp) ?init_window ?(entity = 0)
    ?(max_msg_bytes = max_int / 4) ?(exclusion = true) ?(ack_every = 1)
    ?(ack_delay = Engine.Time.us 10) host =
  (* Coalesced SACKs go out behind the header's u8 count. *)
  if ack_every < 1 || ack_every > 0xff then
    invalid_arg "Endpoint.attach: ack_every must be in 1..255";
  let node = Netsim.Host.node host in
  let t =
    { ep_node = node; ep_sim = Netsim.Node.sim node; entity;
      mtu = mtu_payload; max_msg_bytes; exclusion;
      path_table =
        (* simlint: allow H103 — once per endpoint, at attach *)
        Pathlet.create ?init_window ~mss:mtu_payload algo;
      next_msg_id = 1; next_port = 30_000; tx_table = Itbl.create 64;
      active = [||]; n_active = 0; n_ready_lanes = 0; shut_epoch = -1;
      n_shut = 0; again = [||]; n_again = 0;
      nil_msg = nil_msg (); epoch = 0; excl_epoch = -1; excl = [];
      dests = Itbl.create 8; rx_table = Itbl.create 64;
      recent_done = Itbl.create 4096; recent_queue = Queue.create ();
      bindings = Itbl.create 8; ack_every; ack_delay;
      ack_acc = Itbl.create 8; ticker_running = false; n_completed = 0;
      n_failed = 0; n_delivered = 0; n_delivered_bytes = 0; n_retransmits = 0;
      n_timeouts = 0; n_nacks = 0; n_rejected = 0; n_acks_tx = 0 }
  in
  if Telemetry.Ctx.on () then begin
    let reg = Telemetry.Ctx.metrics () in
    (* simlint: allow H101 — one-time gauge naming at attach, not per packet *)
    let pre = Printf.sprintf "mtp.h%d." (Netsim.Node.addr node) in
    (* simlint: allow H101 — one-time gauge naming at attach, not per packet *)
    let g n f = Telemetry.Registry.set_gauge reg (pre ^ n) f in
    g "completed" (fun () -> float_of_int t.n_completed);
    g "failed" (fun () -> float_of_int t.n_failed);
    g "delivered_msgs" (fun () -> float_of_int t.n_delivered);
    g "delivered_bytes" (fun () -> float_of_int t.n_delivered_bytes);
    g "retransmits" (fun () -> float_of_int t.n_retransmits);
    g "timeouts" (fun () -> float_of_int t.n_timeouts);
    g "nacks" (fun () -> float_of_int t.n_nacks);
    g "acks_tx" (fun () -> float_of_int t.n_acks_tx);
    g "window_sum"
      (fun () ->
        List.fold_left
          (fun acc (_, cc) -> acc +. float_of_int (Cc.window cc))
          0.0
          (Pathlet.known t.path_table))
  end;
  Netsim.Host.register host ~name:"mtp" (claim t);
  t

let bind t ~port callback = Itbl.replace t.bindings port callback

let unbind t ~port = Itbl.remove t.bindings port

let fresh_port t =
  t.next_port <- t.next_port + 1;
  t.next_port

let send t ~dst ~dst_port ?src_port ?(pri = 0) ?(tc = 0) ?(cookie = 0)
    ?(cookie2 = 0) ?deadline ?on_complete ?on_error ~size () =
  if size <= 0 then invalid_arg "Endpoint.send: size must be positive";
  if tc < 0 || tc > 0xff then
    invalid_arg "Endpoint.send: tc must fit the header's u8 field";
  let src_port =
    match src_port with
    | Some p -> p
    | None ->
      t.next_port <- t.next_port + 1;
      t.next_port
  in
  let id = t.next_msg_id in
  t.next_msg_id <- t.next_msg_id + 1;
  let npkts = (size + t.mtu - 1) / t.mtu in
  let msg =
    { tx_id = id; tx_dst = dst; tx_dst_port = dst_port; tx_src_port = src_port;
      tx_pri = pri; tx_tc = tc; tx_size = size; tx_npkts = npkts;
      tx_cookie = cookie; tx_cookie2 = cookie2; tx_lane = lane_for t ~dst ~tc;
      states = Array.make npkts Unsent; acked_pkts = 0; n_inflight = 0;
      scan = 0; retx = [||]; retx_head = 0; retx_len = 0; tx_ready = Dry;
      tx_created = now t;
      tx_deadline = Option.map (fun d -> now t + d) deadline;
      tx_last_progress = now t;
      tx_on_complete = on_complete; tx_on_error = on_error }
  in
  Itbl.add t.tx_table id msg;
  insert_active t msg;
  note_next t msg;
  pump t;
  id

let active_messages t = Itbl.length t.tx_table

let charged_flight t =
  let sums = Hashtbl.create 8 in
  (* simlint: allow D001 — sums are order-free; the result is sorted *)
  Itbl.iter
    (fun _ msg ->
      Array.iteri
        (fun i st ->
          match st with
          | Inflight { charged; _ } ->
            List.iter
              (fun r ->
                (* simlint: allow H104 — oracle-only: Check.Oracle's ledger *)
                let sum = Option.value ~default:0 (Hashtbl.find_opt sums r) in
                (* simlint: allow H104 — oracle-only: Check.Oracle's ledger *)
                Hashtbl.replace sums r (sum + pkt_payload t msg i))
              charged
          | Unsent | Lost | Acked -> ())
        msg.states)
    t.tx_table;
  (* simlint: allow D001 — fold result is sorted just below *)
  Hashtbl.fold (fun r sum acc -> (r, sum) :: acc) sums []
  (* simlint: allow H104 — oracle-only: sorts the ledger's pathlet sums *)
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Self-check                                                           *)

let check_pump t =
  let n = t.n_active in
  if n <> Itbl.length t.tx_table then
    failwith
      (Printf.sprintf "pump: %d active messages but %d unacknowledged" n
         (Itbl.length t.tx_table));
  (* Ready and short messages per (dst, tc), and the lanes with any. *)
  let recount = Hashtbl.create 8 and ready_lanes = ref 0 in
  for i = 0 to n - 1 do
    let m = t.active.(i) in
    (match Itbl.find_opt t.tx_table m.tx_id with
    | Some m' when m' == m -> ()
    | Some _ | None ->
      failwith
        (Printf.sprintf "pump: active message %d is not unacknowledged"
           m.tx_id));
    (if i > 0 then
       let prev = t.active.(i - 1) in
       if
         prev.tx_pri > m.tx_pri
         || (prev.tx_pri = m.tx_pri && prev.tx_id >= m.tx_id)
       then
         failwith
           (Printf.sprintf
              "pump: active message %d (pri %d) follows %d (pri %d)" m.tx_id
              m.tx_pri prev.tx_id prev.tx_pri));
    let key = (m.tx_dst, m.tx_tc) in
    let ready, short =
      (* simlint: allow H104 — self-check recount, oracle-only *)
      Option.value ~default:(0, 0) (Hashtbl.find_opt recount key)
    in
    let p = next_pkt m in
    if p >= 0 then begin
      if ready = 0 then incr ready_lanes;
      let short = if pkt_payload t m p < t.mtu then short + 1 else short in
      (* simlint: allow H104 — self-check recount, oracle-only *)
      Hashtbl.replace recount key (ready + 1, short)
    end
    (* simlint: allow H104 — self-check recount, oracle-only *)
    else Hashtbl.replace recount key (ready, short)
  done;
  for i = 0 to n - 1 do
    let m = t.active.(i) in
    let ln = m.tx_lane in
    (* simlint: allow H104 — self-check recount, oracle-only *)
    let ready, short = Hashtbl.find recount (m.tx_dst, m.tx_tc) in
    if ln.ln_ready <> ready || ln.ln_short <> short then
      failwith
        (Printf.sprintf
           "pump: lane to %d at tc %d counts %d ready, %d short; a recount \
            finds %d, %d"
           m.tx_dst m.tx_tc ln.ln_ready ln.ln_short ready short)
  done;
  if t.n_ready_lanes <> !ready_lanes then
    failwith
      (Printf.sprintf "pump: %d lanes counted ready; a recount finds %d"
         t.n_ready_lanes !ready_lanes)

let completed t = t.n_completed
let failed t = t.n_failed
let delivered_messages t = t.n_delivered
let delivered_bytes t = t.n_delivered_bytes
let retransmits t = t.n_retransmits
let timeouts t = t.n_timeouts
let nacks_received t = t.n_nacks
let rejected t = t.n_rejected
let acks_sent t = t.n_acks_tx

(* ------------------------------------------------------------------ *)
(* Unified transport interface                                          *)

module Messaging = struct
  type nonrec t = t

  let id = "mtp"

  let node = node

  let listen t ~port ?on_data ?on_message () =
    bind t ~port (fun dl ->
        (match on_data with Some f -> f dl.dl_size | None -> ());
        match on_message with
        | Some f ->
          f
            { Netsim.Transport_intf.msg_src = dl.dl_src;
              msg_src_port = dl.dl_src_port;
              msg_size = dl.dl_size;
              msg_latency = dl.dl_latency }
        | None -> ())

  let send_message t ~dst ~dst_port ?tc ?on_complete ~size () =
    ignore (send t ~dst ~dst_port ?tc ?on_complete ~size ())

  (* A closed-loop chain of paper-sized messages: MTP has no byte
     streams, so "saturating" means the next message starts the moment
     the previous one completes. *)
  let stream t ~dst ~dst_port ?tc () =
    let chunk = 250_000 in
    let rec chain () =
      ignore
        (* simlint: allow H103 — one callback box per 250 kB message *)
        (send t ~dst ~dst_port ?tc ~on_complete:(fun _ -> chain ())
           ~size:chunk ())
    in
    chain ()

  let stats t =
    { Netsim.Transport_intf.tx_messages = t.next_msg_id - 1;
      rx_messages = t.n_delivered;
      rx_bytes = t.n_delivered_bytes;
      retransmits = t.n_retransmits }
end
