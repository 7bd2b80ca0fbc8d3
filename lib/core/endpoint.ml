type delivery = {
  dl_src : Netsim.Packet.addr;
  dl_src_port : int;
  dl_msg_id : int;
  dl_size : int;
  dl_cookie : int;
  dl_cookie2 : int;
  dl_pri : int;
  dl_latency : Engine.Time.t;
}

(* A packet's state, in a message's [states]: a packet in flight holds
   its slot in the endpoint's flight table (see [t]), any other one of
   the negative constants below. *)
let unsent = -1
let lost = -2 (* awaiting retransmission, or abandoned with its message *)
let acked = -3

(* A pathlet an ack named for a destination, and when it last did. *)
type seen = { s_ref : Wire.path_ref; mutable s_at : Engine.Time.t }

(* Per-destination path state.  [entries] are the pathlets acks named
   for this destination, newest first, one [seen] record each, and
   [refs] their references in the same order.  [prev_entries] and
   [prev_refs] are the two lists from before the last reorder (see
   [note_paths]).  [live] caches [live_refs] for one scheduling epoch
   (see [pump]), and [prev_live] is the live set before it changed
   last. *)
type dst_paths = {
  mutable entries : seen list;
  mutable refs : Wire.path_ref list;
  mutable prev_entries : seen list;
  mutable prev_refs : Wire.path_ref list;
  mutable live_epoch : int;
  mutable live : Wire.path_ref list;
  mutable prev_live : Wire.path_ref list;
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

(* An exclusion list naming suspects ([sl_out], see [with_suspects]),
   and what it was built from: the suspect list, the message's path
   set and the congested pathlets. *)
type suspect_list = {
  mutable sl_sus : Wire.path_ref list;
  mutable sl_path : Wire.path_ref list;
  mutable sl_cong : Wire.path_ref list;
  mutable sl_out : Wire.path_ref list;
}

(* A message's next packet: none, a full-MTU one, or a shorter one
   (only a message's last packet can be). *)
type readiness = Dry | Full | Short

(* A message's records are recycled (see [retire_msg]), so every field
   is mutable and the arrays may be longer than the message: only
   [states.(0 .. tx_npkts - 1)] and [got]'s first [(rx_npkts + 7) / 8]
   bytes are the message's. *)
type txmsg = {
  mutable tx_id : int;
  mutable tx_dst : Netsim.Packet.addr;
  mutable tx_dst_port : int;
  mutable tx_src_port : int;
  mutable tx_pri : int;
  mutable tx_tc : int;
  mutable tx_size : int;
  mutable tx_npkts : int;
  mutable tx_cookie : int;
  mutable tx_cookie2 : int;
  mutable tx_lane : lane;
  mutable states : int array; (* a flight slot, [unsent], [lost] or [acked] *)
  mutable acked_pkts : int;
  mutable n_inflight : int; (* packets holding a flight slot *)
  mutable scan : int; (* all packets below this index are not [unsent] *)
  (* Packet numbers awaiting retransmission, a FIFO ring allocated on
     the first loss (or kept from an earlier message, if as large): a
     packet is queued only on leaving flight, so at most [tx_npkts]
     wait at once. *)
  mutable retx : int array;
  mutable retx_head : int;
  mutable retx_len : int;
  mutable tx_ready : readiness; (* as counted in [tx_lane] *)
  mutable tx_created : Engine.Time.t;
  (* absolute; abort past this ([no_deadline]: never) *)
  mutable tx_deadline : Engine.Time.t;
  mutable tx_last_progress : Engine.Time.t;
  (* [no_callback] when the sender gave none *)
  mutable tx_on_complete : Engine.Time.t -> unit;
  mutable tx_on_error : Engine.Time.t -> unit;
}

type rxmsg = {
  mutable rx_src : Netsim.Packet.addr;
  mutable rx_src_port : int;
  mutable rx_dst_port : int;
  mutable rx_id : int;
  mutable rx_size : int;
  mutable rx_npkts : int;
  mutable rx_cookie : int;
  mutable rx_cookie2 : int;
  mutable rx_pri : int;
  mutable got : Bytes.t; (* bitmap *)
  mutable rx_count : int;
  mutable rx_first : Engine.Time.t;
}

let no_deadline = max_int

let no_callback (_ : Engine.Time.t) = ()

(* Pending coalesced acknowledgement towards one source.  The reply's
   class, ports and msg id are copied from the latest packet: its
   header is refilled for another send once the packet is handled. *)
type ack_acc = {
  mutable acc_sacks : Wire.pkt_ref list; (* newest first *)
  mutable acc_count : int;
  mutable acc_fb : Wire.path_fb list; (* latest packet's feedback *)
  mutable acc_tc : int;
  mutable acc_src_port : int; (* the reply's: the data's dst port *)
  mutable acc_dst_port : int;
  mutable acc_msg_id : int;
  mutable acc_tm : Engine.Sim.timer;
}

module Itbl = Hashtbl.Make (Int)

type t = {
  ep_node : Netsim.Node.t;
  ep_sim : Engine.Sim.t;
  ep_pool : Netsim.Packet.pool; (* the node's *)
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
     no pathlet is suspect, and the one before it changed last (see
     [exclusion_list]). *)
  mutable excl_epoch : int;
  mutable excl : Wire.path_ref list;
  mutable prev_excl : Wire.path_ref list;
  (* The list with suspects, valid for [sus_epoch] when its suspects and
     path set are the ones asked for, and the one before it (see
     [with_suspects]). *)
  mutable sus_epoch : int;
  mutable sus_cur : suspect_list;
  mutable sus_prev : suspect_list;
  dests : dst_paths Itbl.t;
  (* Receiver state keyed by [rx_key]. *)
  rx_table : rxmsg Itbl.t;
  recent_done : unit Itbl.t;
  recent_queue : int Queue.t;
  (* A port's binding, handed the completed message (see [deliver]). *)
  bindings : (rxmsg -> unit) Itbl.t;
  (* Finished records, for the next [send] or new message received:
     [tx_spare.(0 .. n_tx_spare - 1)] and [rx_spare.(0 .. n_rx_spare -
     1)].  A record is parked only once its callback has returned and
     no table, [active] or [again] holds it ([retire_msg],
     [retire_rx]). *)
  mutable tx_spare : txmsg array;
  mutable n_tx_spare : int;
  mutable rx_spare : rxmsg array;
  mutable n_rx_spare : int;
  nil_rx : rxmsg; (* fills [rx_spare]'s unused tail *)
  ack_every : int;
  ack_acc : ack_acc Itbl.t;
  mutable ticker_running : bool;
  (* The flight table: one slot per data packet in flight, shared by
     every message, so a send allocates nothing and a queued message
     holds no flight state.  A packet in flight names its slot in its
     message's [states]; the slot holds when the packet left
     ([fl_at]), the pathlets charged for it ([fl_charged]) and whether
     it was a retransmission ([fl_rtx]).  Free slots are stacked in
     [fl_free.(0 .. fl_nfree - 1)]; every other slot belongs to exactly
     one packet, until an ack, a NACK, a timeout or its message's
     deadline returns it ([leave_flight]).  The arrays double when the
     stack runs dry. *)
  mutable fl_at : Engine.Time.t array;
  mutable fl_charged : Wire.path_ref list array;
  mutable fl_rtx : bool array;
  mutable fl_free : int array;
  mutable fl_nfree : int;
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

(* How long a coalescing receiver ([ack_every] > 1) holds SACK entries
   before it flushes them short of [ack_every]. *)
let ack_delay = Engine.Time.us 10

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
  (* simlint: allow T201 — helper, every caller guards with Ctx.on *)
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

(* Whether the live entries of [entries], in order, name exactly the
   pathlets of [live]. *)
let rec same_live t time live = function
  | [] -> ( match live with [] -> true | _ :: _ -> false)
  | s :: rest ->
    if is_live t time s then
      match live with
      | r :: more -> Wire.same_path r s.s_ref && same_live t time more rest
      | [] -> false
    else same_live t time live rest

(* The cached [refs] when every entry is live, the last live set [live]
   or the one before it when the live entries still name it (none of
   these allocates), else a filtered copy. *)
let live_refs t d =
  let time = Engine.Sim.now t.ep_sim in
  if all_live t time d.entries then d.refs
  else if same_live t time d.live d.entries then d.live
  else if same_live t time d.prev_live d.entries then d.prev_live
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

let no_paths () =
  { entries = []; refs = []; prev_entries = []; prev_refs = [];
    live_epoch = -1; live = []; prev_live = []; lanes = [] }

let dst_paths t dst =
  match Itbl.find t.dests dst with
  | d -> d
  | exception Not_found ->
    let d = no_paths () in
    Itbl.add t.dests dst d;
    d

let rec find_lane d tc = function
  | ln :: rest -> if ln.ln_tc = tc then ln else find_lane d tc rest
  | [] ->
    let ln =
      { ln_dst = d; ln_tc = tc; ln_default = default_path tc; ln_epoch = -1;
        ln_refused = 0; ln_ready = 0; ln_short = 0 }
    in
    d.lanes <- ln :: d.lanes;
    ln

let lane_for t ~dst ~tc =
  let d = dst_paths t dst in
  find_lane d tc d.lanes

(* [path_for] of the lane, computing the live set at most once per
   scheduling epoch.  A live set that flips back is the kept one. *)
let lane_path t ln =
  let d = ln.ln_dst in
  if d.live_epoch <> t.epoch then begin
    let live = live_refs t d in
    if live != d.live then begin
      d.prev_live <- d.live;
      d.live <- live
    end;
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

let rec named_in r = function
  | [] -> false
  | { Wire.fb_path; _ } :: rest -> Wire.same_path fb_path r || named_in r rest

(* Whether [a] and [b] hold the same records in the same order, leaving
   out those of the pathlets [fbs] names. *)
let rec same_unnamed fbs a b =
  match (a, b) with
  | s :: more, _ when named_in s.s_ref fbs -> same_unnamed fbs more b
  | _, s :: more when named_in s.s_ref fbs -> same_unnamed fbs a more
  | s :: more, s' :: more' -> s == s' && same_unnamed fbs more more'
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

let rec unnamed fbs = function
  | [] -> []
  | s :: rest ->
    if named_in s.s_ref fbs then unnamed fbs rest else s :: unnamed fbs rest

(* [r]'s record in [entries], stamped [time], or a new one. *)
let rec seen_at time r = function
  | [] -> { s_ref = r; s_at = time }
  | s :: rest ->
    if Wire.same_path s.s_ref r then begin
      s.s_at <- time;
      s
    end
    else seen_at time r rest

(* The records of the pathlets [cells] names, in order of first
   mention and stamped [time], ahead of [tail]. *)
let rec front time fbs entries tail = function
  | [] -> tail
  | { Wire.fb_path; _ } :: rest as cells ->
    if Wire.first_mention fbs cells then
      seen_at time fb_path entries :: front time fbs entries tail rest
    else front time fbs entries tail rest

let rec refs_of = function [] -> [] | s :: rest -> s.s_ref :: refs_of rest

(* An ack's feedback names the pathlets its data packet crossed: they
   move to the front of the destination's list, newest first, stamped
   now.  On a stable path they already head it in the same order, and
   the stamps are updated in place.  A reorder keeps every pathlet's
   record and the lists it replaces: an ack that restores that order,
   as acks alternating between two paths do, swaps them back in, so
   neither allocates. *)
let note_paths t ~dst fbs =
  let time = Engine.Sim.now t.ep_sim in
  let d = dst_paths t dst in
  if not (restamp time fbs fbs d.entries) then begin
    let entries = d.entries and refs = d.refs in
    if
      restamp time fbs fbs d.prev_entries
      && same_unnamed fbs d.prev_entries entries
    then begin
      d.entries <- d.prev_entries;
      d.refs <- d.prev_refs
    end
    else begin
      d.entries <- front time fbs entries (unnamed fbs entries) fbs;
      d.refs <- refs_of d.entries
    end;
    d.prev_entries <- entries;
    d.prev_refs <- refs
  end

(* ------------------------------------------------------------------ *)
(* Packet geometry: packets carry [mtu] bytes except the last.          *)

let pkt_payload t msg pkt_num =
  let full = t.mtu in
  if pkt_num < msg.tx_npkts - 1 then full
  else msg.tx_size - (full * (msg.tx_npkts - 1))

(* ------------------------------------------------------------------ *)
(* The flight table                                                     *)

let grow_flight t =
  let cap = Array.length t.fl_at in
  let cap' = Int.max 16 (2 * cap) in
  let at = Array.make cap' 0 and charged = Array.make cap' [] in
  let rtx = Array.make cap' false in
  Array.blit t.fl_at 0 at 0 cap;
  Array.blit t.fl_charged 0 charged 0 cap;
  Array.blit t.fl_rtx 0 rtx 0 cap;
  t.fl_at <- at;
  t.fl_charged <- charged;
  t.fl_rtx <- rtx;
  (* The stack was empty: it now holds the new slots, lowest on top. *)
  let free = Array.make cap' 0 in
  for i = 0 to cap' - cap - 1 do
    free.(i) <- cap' - 1 - i
  done;
  t.fl_free <- free;
  t.fl_nfree <- cap' - cap

let enter_flight t msg i ~charged ~rtx =
  if t.fl_nfree = 0 then grow_flight t;
  let n = t.fl_nfree - 1 in
  let slot = t.fl_free.(n) in
  t.fl_nfree <- n;
  t.fl_at.(slot) <- now t;
  t.fl_charged.(slot) <- charged;
  t.fl_rtx.(slot) <- rtx;
  msg.states.(i) <- slot;
  msg.n_inflight <- msg.n_inflight + 1

(* Packet [i] of [msg], in flight in [slot], leaves it for state [st]:
   its charge is discharged and the slot is freed.  Read the slot
   before, not after. *)
let leave_flight t msg i slot st =
  Pathlet.discharge t.path_table t.fl_charged.(slot) (pkt_payload t msg i);
  t.fl_charged.(slot) <- [];
  t.fl_free.(t.fl_nfree) <- slot;
  t.fl_nfree <- t.fl_nfree + 1;
  msg.states.(i) <- st;
  msg.n_inflight <- msg.n_inflight - 1

(* ------------------------------------------------------------------ *)
(* Emission                                                             *)

(* A header box to refill in full and send at once: that of the packet
   the pool hands out next, or a fresh one. *)
let next_box t =
  match Netsim.Packet.parked_payload t.ep_pool with
  | Wire.Mtp _ as box -> box
  | _ -> Wire.Mtp (Wire.blank ())

let emit_header t ~dst box =
  let pkt =
    Wire.packet t.ep_pool ~src:(Netsim.Node.addr t.ep_node) ~dst
      ~entity:t.entity box
  in
  Netsim.Node.send t.ep_node pkt

let rec any_idle tbl = function
  | [] -> false
  | r :: rest -> Pathlet.inflight tbl r = 0 || any_idle tbl rest

(* The exclusion list names congested and suspect pathlets, at most
   [max_excluded] so headers stay small. *)
let max_excluded = 4

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
let build_with_suspects ~path sus congested =
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

let built_from t ~path sus sl =
  sl.sl_sus == sus && sl.sl_path == path
  && Pathlet.is_congested_paths t.path_table ~now:(now t) sl.sl_cong

(* Built from no suspect list, so it never holds. *)
let no_suspect_list () =
  { sl_sus = []; sl_path = []; sl_cong = []; sl_out = [] }

(* The list depends on the suspects, the path set and the congested
   pathlets, and congestion is fixed within a scheduling epoch (see
   [refused]): it is checked at most once per epoch and path set,
   and built only when neither it nor the one before it still holds,
   as acks alternating between two states would otherwise have it
   rebuilt per packet. *)
let with_suspects t ~path sus =
  let cur = t.sus_cur in
  if not (t.sus_epoch = t.epoch && cur.sl_sus == sus && cur.sl_path == path)
  then begin
    if not (built_from t ~path sus cur) then begin
      let prev = t.sus_prev in
      t.sus_prev <- cur;
      t.sus_cur <- prev;
      if not (built_from t ~path sus prev) then begin
        let congested = Pathlet.congested_paths t.path_table ~now:(now t) in
        prev.sl_sus <- sus;
        prev.sl_path <- path;
        prev.sl_cong <- congested;
        prev.sl_out <- build_with_suspects ~path sus congested
      end
    end;
    t.sus_epoch <- t.epoch
  end;
  t.sus_cur.sl_out

(* No suspects: the first [max_excluded] congested pathlets, last
   first.  The full advisory list goes out even when it names every
   known pathlet (the network may have alternatives the sender cannot
   see).  It depends on congestion state alone, which is fixed within
   a scheduling epoch (see [refused]): it is checked once per epoch,
   swapped with the one before it when congestion returns to that, and
   rebuilt only when it changed to a third. *)
let is_advisory t l =
  Pathlet.is_advisory t.path_table ~now:(now t) ~max:max_excluded l

let exclusion_list t ~path =
  match Pathlet.suspects t.path_table with
  | [] ->
    if t.excl_epoch <> t.epoch then begin
      if not (is_advisory t t.excl) then begin
        let older = t.prev_excl in
        t.prev_excl <- t.excl;
        t.excl <-
          (if is_advisory t older then older
           else Pathlet.advisory t.path_table ~now:(now t) ~max:max_excluded)
      end;
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
  enter_flight t msg pkt_num ~charged ~rtx;
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
  let box = next_box t in
  Wire.fill (Wire.header box) ~is_ack:false ~pri:msg.tx_pri ~tc:msg.tx_tc
    ~cookie:msg.tx_cookie ~cookie2:msg.tx_cookie2 ~exclude
    ~src_port:msg.tx_src_port ~dst_port:msg.tx_dst_port ~msg_id:msg.tx_id
    ~msg_len:msg.tx_size ~msg_pkts:msg.tx_npkts ~pkt_num
    ~pkt_offset:(pkt_num * t.mtu) ~pkt_len:payload ~sack:[] ~nack:[]
    ~ack_path_feedback:[];
  emit_header t ~dst:msg.tx_dst box

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
  if Array.length msg.retx < msg.tx_npkts then
    msg.retx <- Array.make msg.tx_npkts 0;
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

(* [a], or a copy twice as long when its [n] slots are all in use,
   the new tail filled with [nil]: the endpoint's arrays of messages
   and records grow by doubling and never shrink. *)
let room a n nil =
  if n < Array.length a then a
  else begin
    let bigger = Array.make (Int.max 8 (2 * n)) nil in
    Array.blit a 0 bigger 0 n;
    bigger
  end

(* Ids only grow, so a new message goes after every message of its
   priority or a more urgent one. *)
let insert_active t msg =
  let n = t.n_active in
  t.active <- room t.active n t.nil_msg;
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
(* Message records                                                      *)

let blank_msg lane =
  { tx_id = -1; tx_dst = -1; tx_dst_port = 0; tx_src_port = 0; tx_pri = 0;
    tx_tc = 0; tx_size = 0; tx_npkts = 0; tx_cookie = 0; tx_cookie2 = 0;
    tx_lane = lane; states = [||]; acked_pkts = 0; n_inflight = 0; scan = 0;
    retx = [||]; retx_head = 0; retx_len = 0; tx_ready = Dry; tx_created = 0;
    tx_deadline = no_deadline; tx_last_progress = 0;
    tx_on_complete = no_callback; tx_on_error = no_callback }

let nil_msg () =
  blank_msg
    { ln_dst = no_paths (); ln_tc = 0; ln_default = []; ln_epoch = -1;
      ln_refused = 0; ln_ready = 0; ln_short = 0 }

(* A finished or failed message's record, once its callback has
   returned: it has left [tx_table] and [active], and [again] is empty
   outside the pump.  It lets go of its callbacks for the GC. *)
let retire_msg t msg =
  msg.tx_on_complete <- no_callback;
  msg.tx_on_error <- no_callback;
  let n = t.n_tx_spare in
  t.tx_spare <- room t.tx_spare n t.nil_msg;
  t.tx_spare.(n) <- msg;
  t.n_tx_spare <- n + 1

(* A parked record, or a fresh one: [send] sets every field. *)
let spare_msg t =
  let n = t.n_tx_spare - 1 in
  if n < 0 then blank_msg t.nil_msg.tx_lane
  else begin
    let msg = t.tx_spare.(n) in
    t.tx_spare.(n) <- t.nil_msg;
    t.n_tx_spare <- n;
    msg
  end

let blank_rx () =
  { rx_src = -1; rx_src_port = 0; rx_dst_port = 0; rx_id = 0; rx_size = 0;
    rx_npkts = 0; rx_cookie = 0; rx_cookie2 = 0; rx_pri = 0;
    got = Bytes.empty; rx_count = 0; rx_first = 0 }

(* A delivered message's record, once its binding has returned: it has
   left [rx_table]. *)
let retire_rx t rx =
  let n = t.n_rx_spare in
  t.rx_spare <- room t.rx_spare n t.nil_rx;
  t.rx_spare.(n) <- rx;
  t.n_rx_spare <- n + 1

(* A parked record, or a fresh one: [process_data] sets every field. *)
let spare_rx t =
  let n = t.n_rx_spare - 1 in
  if n < 0 then blank_rx ()
  else begin
    let rx = t.rx_spare.(n) in
    t.rx_spare.(n) <- t.nil_rx;
    t.n_rx_spare <- n;
    rx
  end

(* ------------------------------------------------------------------ *)
(* Message failure (deadline exceeded)                                  *)

let fail_message t msg =
  for i = 0 to msg.tx_npkts - 1 do
    let slot = msg.states.(i) in
    if slot >= 0 then leave_flight t msg i slot lost
  done;
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
  msg.tx_on_error (now t - msg.tx_created);
  retire_msg t msg

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
          let rtx = msg.states.(p) <> unsent in
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

let push_again t msg =
  t.again <- room t.again t.n_again t.nil_msg;
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

(* The tick's two tests.  Each is walked over [active.(i ..)] (the
   messages of [tx_table]) by its own closure-free recursion that
   conses only due messages, so a tick with nothing due allocates
   nothing. *)
let past_deadline time msg = time >= msg.tx_deadline

let rec late t time i acc =
  if i >= t.n_active then acc
  else
    let msg = t.active.(i) in
    late t time (i + 1) (if past_deadline time msg then msg :: acc else acc)

(* Only messages with packets actually in the network can time out; a
   message merely blocked on the window is not stalled. *)
let timed_out t time msg =
  msg.n_inflight > 0
  && time - msg.tx_last_progress
     > max_rto t.path_table 0 (lane_path t msg.tx_lane)

let rec stalled t time i acc =
  if i >= t.n_active then acc
  else
    let msg = t.active.(i) in
    stalled t time (i + 1) (if timed_out t time msg then msg :: acc else acc)

(* Both sweeps act in message-id order, so failure/retransmit event
   order is a function of the ids alone. *)
let by_id a b = Int.compare a.tx_id b.tx_id

let in_id_order = function
  | ([] | [ _ ]) as msgs -> msgs
  | msgs -> List.sort by_id msgs

(* Deadline sweep: a message past its deadline is aborted even if it
   is merely window-blocked and could never time out. *)
let rec fail_late t = function
  | [] -> ()
  | msg :: rest ->
    fail_message t msg;
    fail_late t rest

(* Adds each pathlet of the list that [acc] lacks to its front. *)
let rec blame acc = function
  | [] -> acc
  | r :: rest -> blame (if mem_path r acc then acc else r :: acc) rest

(* Packets [i ..] of [msg]: each one in flight is lost and queued for
   retransmission, its pathlets added to [blamed], newest first. *)
let rec expire_pkts t msg i blamed =
  if i >= msg.tx_npkts then blamed
  else
    let slot = msg.states.(i) in
    if slot >= 0 then begin
      let blamed = blame blamed t.fl_charged.(slot) in
      leave_flight t msg i slot lost;
      push_retx t msg i;
      expire_pkts t msg (i + 1) blamed
    end
    else expire_pkts t msg (i + 1) blamed

let rec note_losses tbl time = function
  | [] -> ()
  | r :: rest ->
    Cc.on_loss (Pathlet.get tbl r) ~now:time;
    note_losses tbl time rest

(* Timeout sweep: every packet in flight of a timed-out message is
   presumed lost.  The loss (and the health strike) is attributed to
   the pathlets those packets were actually charged to, not the whole
   current path set — a timeout on a dead pathlet must not penalise
   the healthy one carrying the rest of the traffic. *)
let expire_one t time msg =
  t.n_timeouts <- t.n_timeouts + 1;
  if Telemetry.Ctx.on () then
    probe_event t ~kind:Telemetry.Events.Rto ~dst:msg.tx_dst ~size:0
      ~a:msg.tx_id ~b:t.n_timeouts;
  msg.tx_last_progress <- time;
  let blamed = expire_pkts t msg 0 [] in
  note_losses t.path_table time blamed;
  Pathlet.note_timeout t.path_table blamed ~now:time

let rec expire t time = function
  | [] -> ()
  | msg :: rest ->
    expire_one t time msg;
    expire t time rest

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
    Engine.Sim.periodic t.ep_sim ~interval:(Engine.Time.us 100) (fun () ->
        if Itbl.length t.tx_table = 0 then begin
          t.ticker_running <- false;
          false
        end
        else begin
          check_timeouts t;
          true
        end)
  end

and check_timeouts t =
  let time = now t in
  fail_late t (in_id_order (late t time 0 []));
  (* The aborts above discharged flight, and the clock moved: path sets
     are read afresh, so the epoch turns before the timeout test reads
     them, whether or not any message is due. *)
  t.epoch <- t.epoch + 1;
  match stalled t time 0 [] with
  | [] -> ()
  | expired ->
    expire t time (in_id_order expired);
    pump t

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
  msg.tx_on_complete (now t - msg.tx_created);
  retire_msg t msg

(* SACKed packets.  [fbs] is the ack's path feedback, [tc] its traffic
   class. *)
let rec ack_sacks t fbs tc = function
  | [] -> ()
  | { Wire.ref_msg; ref_pkt } :: rest ->
    (match Itbl.find t.tx_table ref_msg with
    | exception Not_found -> ()
    | msg ->
      let slot = msg.states.(ref_pkt) in
      if slot >= 0 then begin
        let payload = pkt_payload t msg ref_pkt in
        let at = t.fl_at.(slot) and charged = t.fl_charged.(slot) in
        let rtx = t.fl_rtx.(slot) in
        leave_flight t msg ref_pkt slot acked;
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
        msg.acked_pkts <- msg.acked_pkts + 1;
        msg.tx_last_progress <- now t;
        let rtt = if rtx then -1 else now t - at in
        if rtt >= 0 && Telemetry.Ctx.on () then
          Stats.Histogram.add (rtt_hist ()) (Engine.Time.to_float_us rtt);
        Pathlet.on_ack t.path_table ~now:(now t) ~acked:payload ~rtt
          ~implicit_trim:false ~tc fbs;
        if msg.acked_pkts = msg.tx_npkts then finish_message t msg
      end);
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
    | msg ->
      let slot = msg.states.(ref_pkt) in
      if slot >= 0 then begin
        leave_flight t msg ref_pkt slot lost;
        push_retx t msg ref_pkt;
        msg.tx_last_progress <- now t;
        Pathlet.on_ack t.path_table ~now:(now t) ~acked:0 ~rtt:(-1)
          ~implicit_trim:true ~tc fbs
      end);
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

(* [box] is [next_box]'s. *)
let emit_ack t box ~dst ~tc ~src_port ~dst_port ~msg_id ~sacks ~nacks ~fb =
  Wire.fill (Wire.header box) ~is_ack:true ~pri:0 ~tc ~cookie:0 ~cookie2:0
    ~exclude:[] ~src_port ~dst_port ~msg_id ~msg_len:0 ~msg_pkts:0 ~pkt_num:0
    ~pkt_offset:0 ~pkt_len:0 ~sack:sacks ~nack:nacks ~ack_path_feedback:fb;
  t.n_acks_tx <- t.n_acks_tx + 1;
  emit_header t ~dst box

let flush_acks t ~dst acc =
  Engine.Sim.disarm acc.acc_tm;
  if acc.acc_count > 0 then begin
    emit_ack t (next_box t) ~dst ~tc:acc.acc_tc ~src_port:acc.acc_src_port
      ~dst_port:acc.acc_dst_port ~msg_id:acc.acc_msg_id
      ~sacks:(List.rev acc.acc_sacks) ~nacks:[] ~fb:acc.acc_fb;
    acc.acc_sacks <- [];
    acc.acc_count <- 0;
    acc.acc_fb <- []
  end

(* Acknowledge the data packet of [header] (a NACK when [nack]):
   immediately, or accumulated when coalescing is enabled (paper
   section 4: "feedback can be aggregated").  NACKs and urgent acks
   always flush at once.  An immediate ack names the packet in the
   cell of the box it goes out in, so it allocates no list; only a
   coalesced one holds a reference of its own. *)
let send_ack t ~dst (header : Wire.t) ~urgent ~nack =
  if t.ack_every <= 1 || nack || urgent then begin
    (* Flush anything pending first so ordering stays sane.  Only a
       coalescing endpoint ever holds a pending ack. *)
    if t.ack_every > 1 then begin
      match Itbl.find t.ack_acc dst with
      | acc -> flush_acks t ~dst acc
      | exception Not_found -> ()
    end;
    let box = next_box t in
    let one =
      Wire.refill_cell (Wire.header box) ~msg_id:header.Wire.msg_id
        ~pkt_num:header.Wire.pkt_num
    in
    emit_ack t box ~dst ~tc:header.Wire.msg_tc ~src_port:header.Wire.dst_port
      ~dst_port:header.Wire.src_port ~msg_id:header.Wire.msg_id
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
          { acc_sacks = []; acc_count = 0; acc_fb = []; acc_tc = 0;
            acc_src_port = 0; acc_dst_port = 0; acc_msg_id = 0;
            acc_tm = Engine.Sim.timer t.ep_sim ignore }
        in
        acc.acc_tm <- Engine.Sim.timer t.ep_sim (fun () -> flush_acks t ~dst acc);
        Itbl.add t.ack_acc dst acc;
        acc
    in
    acc.acc_tc <- header.Wire.msg_tc;
    acc.acc_src_port <- header.Wire.dst_port;
    acc.acc_dst_port <- header.Wire.src_port;
    acc.acc_msg_id <- header.Wire.msg_id;
    acc.acc_sacks <-
      { Wire.ref_msg = header.Wire.msg_id; ref_pkt = header.Wire.pkt_num }
      :: acc.acc_sacks;
    acc.acc_count <- acc.acc_count + 1;
    (match header.Wire.path_feedback with
    | [] -> ()
    | fb -> acc.acc_fb <- fb);
    if acc.acc_count >= t.ack_every then flush_acks t ~dst acc
    else if not (Engine.Sim.armed acc.acc_tm) then
      Engine.Sim.arm_after acc.acc_tm ack_delay
  end

(* A binding reads what it hands on from [rx] before it returns: the
   record is recycled after. *)
let deliver t rx =
  t.n_delivered <- t.n_delivered + 1;
  match Itbl.find t.bindings rx.rx_dst_port with
  | callback -> callback rx
  | exception Not_found -> ()

(* Receiver state key: msg ids are wire u32s, so the source address
   sits above them. *)
let rx_key ~src ~msg_id = (src lsl 32) lor msg_id

let receive t ~src (header : Wire.t) key rx =
  if not (bit_get rx.got header.Wire.pkt_num) then begin
    bit_set rx.got header.Wire.pkt_num;
    rx.rx_count <- rx.rx_count + 1;
    t.n_delivered_bytes <- t.n_delivered_bytes + header.Wire.pkt_len
  end;
  let complete = rx.rx_count = rx.rx_npkts in
  (* A message-completing packet flushes immediately so the sender
     finishes without waiting out the coalescing delay. *)
  send_ack t ~dst:src header ~urgent:complete ~nack:false;
  if complete then begin
    Itbl.remove t.rx_table key;
    remember_done t key;
    deliver t rx;
    retire_rx t rx
  end

let process_data t (header : Wire.t) (pkt : Netsim.Packet.t) =
  let src = pkt.Netsim.Packet.src in
  let key = rx_key ~src ~msg_id:header.Wire.msg_id in
  if Netsim.Packet.trimmed pkt then
    (* NDP-style: the payload is gone; tell the sender immediately. *)
    send_ack t ~dst:src header ~urgent:false ~nack:true
  else if Itbl.mem t.recent_done key then
    (* Duplicate of a completed message: re-ACK so the sender stops. *)
    send_ack t ~dst:src header ~urgent:false ~nack:false
  else
    match Itbl.find t.rx_table key with
    | rx -> receive t ~src header key rx
    | exception Not_found ->
      if
        header.Wire.msg_len > t.max_msg_bytes
        || Itbl.length t.rx_table >= max_rx_messages
      then t.n_rejected <- t.n_rejected + 1
      else begin
        (* The header announces the full geometry up front, so the
           receiver needs exactly one bitmap — the bounded buffering
           property of §2.2 — or reuses a large enough one. *)
        let rx = spare_rx t in
        rx.rx_src <- src;
        rx.rx_src_port <- header.Wire.src_port;
        rx.rx_dst_port <- header.Wire.dst_port;
        rx.rx_id <- header.Wire.msg_id;
        rx.rx_size <- header.Wire.msg_len;
        rx.rx_npkts <- header.Wire.msg_pkts;
        rx.rx_cookie <- header.Wire.cookie;
        rx.rx_cookie2 <- header.Wire.cookie2;
        rx.rx_pri <- header.Wire.msg_pri;
        let bytes = (header.Wire.msg_pkts + 7) / 8 in
        if Bytes.length rx.got < bytes then rx.got <- Bytes.make bytes '\000'
        else Bytes.fill rx.got 0 bytes '\000';
        rx.rx_count <- 0;
        rx.rx_first <- now t;
        Itbl.add t.rx_table key rx;
        receive t ~src header key rx
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
    ?(max_msg_bytes = max_int / 4) ?(exclusion = true) ?(ack_every = 1) host =
  (* Coalesced SACKs go out behind the header's u8 count. *)
  if ack_every < 1 || ack_every > 0xff then
    invalid_arg "Endpoint.attach: ack_every must be in 1..255";
  let node = Netsim.Host.node host in
  let t =
    { ep_node = node; ep_sim = Netsim.Node.sim node;
      ep_pool = Netsim.Node.pool node; entity;
      mtu = mtu_payload; max_msg_bytes; exclusion;
      path_table =
        (* simlint: allow H103 — once per endpoint, at attach *)
        Pathlet.create ?init_window ~mss:mtu_payload algo;
      next_msg_id = 1; next_port = 30_000; tx_table = Itbl.create 64;
      active = [||]; n_active = 0; n_ready_lanes = 0; shut_epoch = -1;
      n_shut = 0; again = [||]; n_again = 0;
      nil_msg = nil_msg (); epoch = 0; excl_epoch = -1; excl = [];
      prev_excl = []; sus_epoch = -1; sus_cur = no_suspect_list ();
      sus_prev = no_suspect_list ();
      dests = Itbl.create 8; rx_table = Itbl.create 64;
      (* Starts small: it grows toward its 4096-key window only on an
         endpoint that finishes that many messages, where a full-size
         table would cost every endpoint 4096 words at attach. *)
      recent_done = Itbl.create 64; recent_queue = Queue.create ();
      bindings = Itbl.create 8; tx_spare = [||]; n_tx_spare = 0;
      rx_spare = [||]; n_rx_spare = 0; nil_rx = blank_rx (); ack_every;
      ack_acc = Itbl.create 8; ticker_running = false; fl_at = [||];
      fl_charged = [||]; fl_rtx = [||]; fl_free = [||]; fl_nfree = 0;
      n_completed = 0;
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

let bind t ~port callback =
  Itbl.replace t.bindings port (fun rx ->
      callback
        { dl_src = rx.rx_src; dl_src_port = rx.rx_src_port;
          dl_msg_id = rx.rx_id; dl_size = rx.rx_size;
          dl_cookie = rx.rx_cookie; dl_cookie2 = rx.rx_cookie2;
          dl_pri = rx.rx_pri; dl_latency = now t - rx.rx_first })

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
  let msg = spare_msg t in
  msg.tx_id <- id;
  msg.tx_dst <- dst;
  msg.tx_dst_port <- dst_port;
  msg.tx_src_port <- src_port;
  msg.tx_pri <- pri;
  msg.tx_tc <- tc;
  msg.tx_size <- size;
  msg.tx_npkts <- npkts;
  msg.tx_cookie <- cookie;
  msg.tx_cookie2 <- cookie2;
  msg.tx_lane <- lane_for t ~dst ~tc;
  if Array.length msg.states < npkts then msg.states <- Array.make npkts unsent
  else Array.fill msg.states 0 npkts unsent;
  msg.acked_pkts <- 0;
  msg.n_inflight <- 0;
  msg.scan <- 0;
  msg.retx_head <- 0;
  msg.retx_len <- 0;
  msg.tx_ready <- Dry;
  msg.tx_created <- now t;
  msg.tx_deadline <-
    (match deadline with Some d -> now t + d | None -> no_deadline);
  msg.tx_last_progress <- now t;
  msg.tx_on_complete <-
    (match on_complete with Some f -> f | None -> no_callback);
  msg.tx_on_error <- (match on_error with Some f -> f | None -> no_callback);
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
        (fun i slot ->
          if slot >= 0 then
            List.iter
              (fun r ->
                (* simlint: allow H104 — oracle-only: Check.Oracle's ledger *)
                let sum = Option.value ~default:0 (Hashtbl.find_opt sums r) in
                (* simlint: allow H104 — oracle-only: Check.Oracle's ledger *)
                Hashtbl.replace sums r (sum + pkt_payload t msg i))
              t.fl_charged.(slot))
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
         t.n_ready_lanes !ready_lanes);
  (* The flight table: every slot is free and charges nothing, or is
     named by exactly one packet in flight; a message counts its own. *)
  let cap = Array.length t.fl_at in
  let owner = Array.make cap 0 (* 0 unnamed, -1 free, else a msg id *) in
  for k = 0 to t.fl_nfree - 1 do
    let slot = t.fl_free.(k) in
    if
      slot < 0 || slot >= cap || owner.(slot) <> 0
      || t.fl_charged.(slot) != []
    then
      failwith
        (Printf.sprintf "flight: free slot %d out of range, twice or charged"
           slot);
    owner.(slot) <- -1
  done;
  let in_flight = ref 0 in
  for i = 0 to n - 1 do
    let m = t.active.(i) in
    let named = ref 0 in
    Array.iteri
      (fun p slot ->
        if slot >= 0 then begin
          if slot >= cap || owner.(slot) <> 0 || p >= m.tx_npkts then
            failwith
              (Printf.sprintf
                 "flight: message %d packet %d names slot %d, which is out \
                  of range, free, named before or past its %d packets"
                 m.tx_id p slot m.tx_npkts);
          owner.(slot) <- m.tx_id;
          incr named
        end)
      m.states;
    if !named <> m.n_inflight then
      failwith
        (Printf.sprintf "flight: message %d counts %d packets in flight of %d"
           m.tx_id m.n_inflight !named);
    in_flight := !in_flight + !named
  done;
  if !in_flight <> cap - t.fl_nfree then
    failwith
      (Printf.sprintf "flight: %d slots in use for %d packets in flight"
         (cap - t.fl_nfree) !in_flight);
  (* The free lists: a parked record is parked once, sits in no table
     and in neither [active] nor [again] (tails included), and holds no
     flight slot. *)
  let named_in a m = Array.exists (fun m' -> m' == m) a in
  let in_table tbl m =
    (* simlint: allow D001 — a membership test: any order gives the same answer *)
    Itbl.fold (fun _ m' acc -> acc || m' == m) tbl false
  in
  for k = 0 to t.n_tx_spare - 1 do
    let m = t.tx_spare.(k) in
    let fail what =
      failwith (Printf.sprintf "free list: message %d %s" m.tx_id what)
    in
    if named_in (Array.sub t.tx_spare 0 k) m then fail "is parked twice";
    if in_table t.tx_table m then fail "is still unacknowledged";
    if named_in t.active m then fail "is still in the active list";
    if named_in t.again m then fail "is still in the pump's again list";
    if m.n_inflight <> 0 || Array.exists (fun slot -> slot >= 0) m.states then
      fail "still holds a flight slot"
  done;
  for k = 0 to t.n_rx_spare - 1 do
    let rx = t.rx_spare.(k) in
    let fail what =
      failwith
        (Printf.sprintf "free list: received message %d from %d %s" rx.rx_id
           rx.rx_src what)
    in
    if named_in (Array.sub t.rx_spare 0 k) rx then fail "is parked twice";
    if in_table t.rx_table rx then fail "is still being received"
  done

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

  (* Hands on one record per message, not a [delivery] copied into a
     second one. *)
  let listen t ~port ?on_data ?on_message () =
    Itbl.replace t.bindings port (fun rx ->
        (match on_data with Some f -> f rx.rx_size | None -> ());
        match on_message with
        | Some f ->
          f
            { Netsim.Transport_intf.msg_src = rx.rx_src;
              msg_src_port = rx.rx_src_port;
              msg_size = rx.rx_size;
              msg_latency = now t - rx.rx_first }
        | None -> ())

  let send_message t ~dst ~dst_port ?on_complete ~size () =
    ignore (send t ~dst ~dst_port ?on_complete ~size ())

  let stats t =
    { Netsim.Transport_intf.tx_messages = t.next_msg_id - 1;
      rx_messages = t.n_delivered;
      rx_bytes = t.n_delivered_bytes;
      retransmits = t.n_retransmits }
end
