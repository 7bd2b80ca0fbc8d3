type cc = Reno | Dctcp

(* DCTCP's alpha EWMA gain, 1/16 per RFC 8257. *)
let dctcp_g = 0.0625

type state = Syn_sent | Established | Closed

(* Connections are keyed by (local port, peer, remote port).  A lookup
   fills the stack's one scratch key instead of building a tuple per
   packet; the table keeps a key of its own for each connection. *)
type key = {
  mutable k_port : int;
  mutable k_peer : Netsim.Packet.addr;
  mutable k_rport : int;
}

module Conns = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.k_port = b.k_port && a.k_peer = b.k_peer && a.k_rport = b.k_rport

  let hash k =
    Int.hash ((((k.k_port lsl 20) lxor k.k_peer) lsl 20) lxor k.k_rport)
end)

module Itbl = Hashtbl.Make (Int)

type conn = {
  stack : t;
  peer : Netsim.Packet.addr;
  local_port : int;
  remote_port : int;
  c_rcv_buf : int;
  (* --- sender --- *)
  mutable state : state;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable app_buffer : int; (* written, never transmitted *)
  mutable fin_pending : bool;
  mutable fin_seq : int; (* -1 until FIN sent *)
  mutable cwnd : float; (* bytes *)
  mutable ssthresh : float;
  mutable peer_rwnd : int;
  mutable dupacks : int;
  mutable recover : int; (* NewReno: in recovery while snd_una < recover *)
  mutable reduce_end : int; (* ECE response allowed when snd_una >= this *)
  rtx : Rtx.t;
  mutable rto_tm : Engine.Sim.timer;
  (* Mirrors the classic "is an RTO pending?" flag checked by
     [try_send]; deliberately left stale after a no-op RTO firing so
     the re-arming policy matches the original option-based code. *)
  mutable rto_set : bool;
  mutable persist_tm : Engine.Sim.timer;
  mutable timed_seq : int; (* -1 = no RTT sample outstanding *)
  mutable timed_at : Engine.Time.t;
  (* DCTCP *)
  mutable alpha : float;
  mutable ce_window_end : int;
  mutable acked_win : int;
  mutable marked_win : int;
  (* --- receiver --- *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list; (* disjoint sorted [lo, hi) intervals *)
  mutable remote_fin_seq : int; (* -1 = not seen *)
  mutable peer_fin_done : bool;
  mutable delivered : int;
  mutable buffered : int; (* delivered but unread *)
  mutable auto_read : bool;
  (* --- callbacks & accounting --- *)
  mutable consec_rtos : int; (* RTOs since last forward progress *)
  mutable c_aborted : bool;
  mutable on_error : (conn -> unit) option;
  mutable on_data : (conn -> int -> unit) option;
  mutable on_close : (conn -> unit) option;
  mutable on_peer_fin : (conn -> unit) option;
  mutable on_drain : (conn -> unit) option;
  mutable n_retransmits : int;
  mutable n_timeouts : int;
  c_opened_at : Engine.Time.t;
  mutable c_closed_at : Engine.Time.t option;
  mutable stall_since : Engine.Time.t option;
  mutable stall_total : Engine.Time.t;
}

and t = {
  t_node : Netsim.Node.t;
  t_sim : Engine.Sim.t;
  t_cc : cc;
  t_snd_buf : int; (* flight cap: models the socket send buffer *)
  t_min_rto : Engine.Time.t;
  t_max_retries : int;
  t_entity : int;
  conns : conn Conns.t;
  scratch : key;
  listeners : (int * (conn -> unit)) Itbl.t; (* rcv_buf, accept *)
  mutable next_port : int;
  (* Stack-wide messaging counters (Transport_intf.stats). *)
  mutable t_tx_msgs : int;
  mutable t_rx_msgs : int;
  mutable t_rx_bytes : int;
  mutable t_retx : int;
}

let node t = t.t_node

let scratch_key t ~local_port ~peer ~remote_port =
  let k = t.scratch in
  k.k_port <- local_port;
  k.k_peer <- peer;
  k.k_rport <- remote_port;
  k

(* The connection an arriving segment belongs to, seen from this end. *)
let segment_key t (seg : Tcp_wire.t) (pkt : Netsim.Packet.t) =
  scratch_key t ~local_port:seg.dst_port ~peer:pkt.Netsim.Packet.src
    ~remote_port:seg.src_port

let add_conn t conn =
  Conns.add t.conns
    { k_port = conn.local_port; k_peer = conn.peer; k_rport = conn.remote_port }
    conn

let infinite = max_int / 4

(* Payload bytes per segment, and the initial window of 10 segments. *)
let mss_bytes = 1460
let init_cwnd_bytes = 10 * mss_bytes

(* ------------------------------------------------------------------ *)
(* Telemetry probes.  Every site is guarded by [Telemetry.Ctx.on], so a
   stack in an uninstrumented simulation pays one branch per probe and
   allocates nothing.  Histograms are shared across stacks by name
   (DCTCP is this engine with another controller, so it lands in the
   same cells; the per-host gauges stay distinct). *)

let rtt_hist () =
  (* simlint: allow T201 — helper, every caller guards with Ctx.on *)
  Telemetry.Registry.histogram (Telemetry.Ctx.metrics ())
    (* simlint: allow H103 — traced runs only, every caller guards *)
    ~scale:`Log ~lo:1.0 ~hi:1e6 ~buckets:60 "tcp.rtt_us"

let msg_latency_hist () =
  (* simlint: allow T201 — helper, every caller guards with Ctx.on *)
  Telemetry.Registry.histogram (Telemetry.Ctx.metrics ())
    (* simlint: allow H103 — traced runs only, every caller guards *)
    ~scale:`Log ~lo:1.0 ~hi:1e7 ~buckets:70 "tcp.msg_latency_us"

let probe_event conn ~kind ~size ~a ~b =
  (* simlint: allow T201 — emit helper, every caller guards with Ctx.on *)
  Telemetry.Events.emit
    (Telemetry.Ctx.events ())
    ~at:(Engine.Sim.now conn.stack.t_sim) ~kind ~point:"tcp" ~uid:(-1)
    ~src:(Netsim.Node.addr conn.stack.t_node) ~dst:conn.peer ~size ~a ~b

(* ------------------------------------------------------------------ *)
(* Segment emission                                                     *)

let emit conn ~syn ~fin ~is_ack ~ece ~probe ~seq ~payload =
  let stack = conn.stack in
  let rwnd = Int.max 0 (conn.c_rcv_buf - conn.buffered) in
  let seg =
    { Tcp_wire.src_port = conn.local_port; dst_port = conn.remote_port;
      seq; ack = conn.rcv_nxt; payload; syn; fin; is_ack; ece; probe; rwnd }
  in
  let pkt =
    Tcp_wire.packet stack.t_sim
      ~src:(Netsim.Node.addr stack.t_node) ~dst:conn.peer
      ~entity:stack.t_entity seg
  in
  if payload > 0 && Telemetry.Ctx.on () then
    probe_event conn ~kind:Telemetry.Events.Send ~size:payload ~a:seq
      ~b:(int_of_float conn.cwnd);
  Netsim.Node.send stack.t_node pkt

let send_pure_ack ~ece conn =
  emit conn ~syn:false ~fin:false ~is_ack:true ~ece ~probe:false
    ~seq:conn.snd_nxt ~payload:0

(* ------------------------------------------------------------------ *)
(* Timers                                                               *)

let outstanding conn = conn.snd_nxt > conn.snd_una

let rec arm_rto conn =
  if outstanding conn && conn.state <> Closed then begin
    Engine.Sim.arm_after conn.rto_tm (Rtx.rto conn.rtx);
    conn.rto_set <- true
  end
  else begin
    Engine.Sim.disarm conn.rto_tm;
    conn.rto_set <- false
  end

and on_rto conn =
  if outstanding conn && conn.state <> Closed then begin
    if conn.consec_rtos >= conn.stack.t_max_retries then abort_conn conn
    else begin
      conn.consec_rtos <- conn.consec_rtos + 1;
      conn.n_timeouts <- conn.n_timeouts + 1;
      let mss = float_of_int mss_bytes in
      let flight = float_of_int (conn.snd_nxt - conn.snd_una) in
      conn.ssthresh <- Float.max (flight /. 2.0) (2.0 *. mss);
      conn.cwnd <- mss;
      conn.recover <- conn.snd_nxt;
      conn.reduce_end <- conn.snd_nxt;
      conn.dupacks <- 0;
      Rtx.backoff conn.rtx;
      if Telemetry.Ctx.on () then
        probe_event conn ~kind:Telemetry.Events.Rto ~size:0
          ~a:conn.consec_rtos ~b:(int_of_float conn.cwnd);
      retransmit_head conn;
      arm_rto conn
    end
  end

(* Too many consecutive RTOs with no forward progress: the peer (or
   the path) is gone.  Tear the connection down and tell the
   application via [on_error] — a real stack would return ETIMEDOUT.
   Duplicates the stall accounting of [note_unstalled], which is
   defined in a later recursion group. *)
and abort_conn conn =
  if conn.state <> Closed then begin
    let time = Engine.Sim.now conn.stack.t_sim in
    conn.state <- Closed;
    conn.c_aborted <- true;
    conn.c_closed_at <- Some time;
    (match conn.stall_since with
    | Some since ->
      conn.stall_total <- conn.stall_total + (time - since);
      conn.stall_since <- None
    | None -> ());
    Engine.Sim.disarm conn.rto_tm;
    conn.rto_set <- false;
    Engine.Sim.disarm conn.persist_tm;
    Conns.remove conn.stack.conns
      (scratch_key conn.stack ~local_port:conn.local_port ~peer:conn.peer
         ~remote_port:conn.remote_port);
    match conn.on_error with Some f -> f conn | None -> ()
  end

(* Rebuild and resend the segment at [snd_una].  Original segment
   boundaries are not tracked; any MSS-sized slice of the hole is a
   valid TCP retransmission. *)
and retransmit_head conn =
  conn.n_retransmits <- conn.n_retransmits + 1;
  conn.stack.t_retx <- conn.stack.t_retx + 1;
  conn.timed_seq <- -1 (* Karn's rule *);
  if conn.state = Syn_sent then
    emit conn ~syn:true ~fin:false ~is_ack:false ~ece:false ~probe:false
      ~seq:0 ~payload:0
  else if conn.fin_seq >= 0 && conn.snd_una = conn.fin_seq then
    emit conn ~syn:false ~fin:true ~is_ack:true ~ece:false ~probe:false
      ~seq:conn.fin_seq ~payload:0
  else begin
    let data_end = if conn.fin_seq >= 0 then conn.fin_seq else conn.snd_nxt in
    let payload = Int.min mss_bytes (data_end - conn.snd_una) in
    if payload > 0 then
      emit conn ~syn:false ~fin:false ~is_ack:true ~ece:false ~probe:false
        ~seq:conn.snd_una ~payload
  end

(* ------------------------------------------------------------------ *)
(* Sending                                                              *)

let rec try_send conn =
  if conn.state = Established then begin
    let mss = mss_bytes in
    let buffer_before = conn.app_buffer in
    let continue = ref true in
    while !continue do
      let flight = conn.snd_nxt - conn.snd_una in
      let wnd =
        Int.min
          (Int.min (int_of_float conn.cwnd) conn.peer_rwnd)
          conn.stack.t_snd_buf
      in
      let allowed = wnd - flight in
      let payload =
        Int.min mss (Int.min conn.app_buffer (Int.max 0 allowed))
      in
      if payload > 0 then begin
        note_unstalled conn;
        if conn.timed_seq < 0 then begin
          conn.timed_seq <- conn.snd_nxt + payload;
          conn.timed_at <- Engine.Sim.now conn.stack.t_sim
        end;
        emit conn ~syn:false ~fin:false ~is_ack:true ~ece:false ~probe:false
          ~seq:conn.snd_nxt ~payload;
        conn.snd_nxt <- conn.snd_nxt + payload;
        conn.app_buffer <- conn.app_buffer - payload;
        if not conn.rto_set then arm_rto conn
      end
      else continue := false
    done;
    (* FIN once the buffer is drained. *)
    if conn.fin_pending && conn.fin_seq < 0 && conn.app_buffer = 0 then begin
      conn.fin_seq <- conn.snd_nxt;
      conn.snd_nxt <- conn.snd_nxt + 1;
      emit conn ~syn:false ~fin:true ~is_ack:true ~ece:false ~probe:false
        ~seq:conn.fin_seq ~payload:0;
      arm_rto conn
    end;
    (* Blocked by a closed peer window: account the stall and keep a
       persist probe going so a later window update is not lost. *)
    if conn.app_buffer > 0
       && conn.peer_rwnd - (conn.snd_nxt - conn.snd_una) <= 0
       && conn.peer_rwnd < mss_bytes
    then begin
      note_stalled conn;
      if (not (Engine.Sim.armed conn.persist_tm)) && not (outstanding conn)
      then arm_persist conn
    end;
    if conn.app_buffer < buffer_before then
      match conn.on_drain with Some f -> f conn | None -> ()
  end

and note_stalled conn =
  if conn.stall_since = None then
    conn.stall_since <- Some (Engine.Sim.now conn.stack.t_sim)

and note_unstalled conn =
  match conn.stall_since with
  | None -> ()
  | Some since ->
    conn.stall_total <-
      conn.stall_total + (Engine.Sim.now conn.stack.t_sim - since);
    conn.stall_since <- None

and arm_persist conn =
  let interval = Int.max (Engine.Time.us 100) (Rtx.rto conn.rtx) in
  Engine.Sim.arm_after conn.persist_tm interval

(* The timer auto-disarms before this runs. *)
and on_persist conn =
  if conn.state = Established && conn.app_buffer > 0 && conn.peer_rwnd = 0
  then begin
    emit conn ~syn:false ~fin:false ~is_ack:true ~ece:false ~probe:true
      ~seq:conn.snd_nxt ~payload:0;
    arm_persist conn
  end

(* ------------------------------------------------------------------ *)
(* Congestion control reactions                                         *)

let mssf = float_of_int mss_bytes

let in_recovery conn = conn.snd_una < conn.recover

let grow_cwnd conn acked_bytes =
  if not (in_recovery conn) then begin
    if conn.cwnd < conn.ssthresh then
      conn.cwnd <- conn.cwnd +. float_of_int acked_bytes
    else
      conn.cwnd <-
        conn.cwnd +. (mssf *. float_of_int acked_bytes /. conn.cwnd)
  end

let enter_loss_recovery conn =
  let flight = float_of_int (conn.snd_nxt - conn.snd_una) in
  conn.ssthresh <- Float.max (flight /. 2.0) (2.0 *. mssf);
  conn.cwnd <- conn.ssthresh;
  conn.recover <- conn.snd_nxt;
  conn.reduce_end <- conn.snd_nxt;
  retransmit_head conn;
  arm_rto conn

let ecn_response conn =
  (* Once per window of data, like a single loss event. *)
  if conn.snd_una >= conn.reduce_end then begin
    (match conn.stack.t_cc with
    | Reno ->
      let flight = float_of_int (conn.snd_nxt - conn.snd_una) in
      conn.ssthresh <- Float.max (flight /. 2.0) (2.0 *. mssf);
      conn.cwnd <- conn.ssthresh
    | Dctcp ->
      (* Exit slow start (RFC 8257 s3.4); the proportional cwnd cut
         itself happens at the alpha window boundary below. *)
      conn.ssthresh <-
        Float.max
          (conn.cwnd *. (1.0 -. (conn.alpha /. 2.0)))
          (2.0 *. mssf));
    conn.reduce_end <- conn.snd_nxt
  end

let dctcp_account conn ~acked ~ece =
  match conn.stack.t_cc with
  | Reno -> ()
  | Dctcp ->
    conn.acked_win <- conn.acked_win + acked;
    if ece then conn.marked_win <- conn.marked_win + acked;
    if conn.snd_una >= conn.ce_window_end && conn.acked_win > 0 then begin
      let f =
        float_of_int conn.marked_win /. float_of_int conn.acked_win
      in
      conn.alpha <- ((1.0 -. dctcp_g) *. conn.alpha) +. (dctcp_g *. f);
      if conn.marked_win > 0 then
        conn.cwnd <-
          Float.max (mssf) (conn.cwnd *. (1.0 -. (conn.alpha /. 2.0)));
      conn.acked_win <- 0;
      conn.marked_win <- 0;
      conn.ce_window_end <- Int.max conn.snd_nxt (conn.snd_una + 1)
    end

(* ------------------------------------------------------------------ *)
(* ACK processing                                                       *)

let finish_close conn =
  if conn.c_closed_at = None then begin
    conn.c_closed_at <- Some (Engine.Sim.now conn.stack.t_sim);
    conn.state <- Closed;
    note_unstalled conn;
    Engine.Sim.disarm conn.rto_tm;
    Engine.Sim.disarm conn.persist_tm;
    Conns.remove conn.stack.conns
      (scratch_key conn.stack ~local_port:conn.local_port ~peer:conn.peer
         ~remote_port:conn.remote_port);
    match conn.on_close with Some f -> f conn | None -> ()
  end

let process_ack conn (seg : Tcp_wire.t) =
  let prev_rwnd = conn.peer_rwnd in
  conn.peer_rwnd <- seg.rwnd;
  if seg.ack > conn.snd_una then begin
    let acked = seg.ack - conn.snd_una in
    let was_in_recovery = in_recovery conn in
    conn.snd_una <- seg.ack;
    (* Full ACK ends recovery: deflate the dup-ACK-inflated window back
       to ssthresh (RFC 6582). *)
    if was_in_recovery && not (in_recovery conn) then
      conn.cwnd <- Float.max (2.0 *. mssf) conn.ssthresh;
    conn.dupacks <- 0;
    conn.consec_rtos <- 0;
    Rtx.reset_backoff conn.rtx;
    if conn.timed_seq >= 0 && seg.ack >= conn.timed_seq then begin
      let sample = Engine.Sim.now conn.stack.t_sim - conn.timed_at in
      Rtx.observe conn.rtx sample;
      if Telemetry.Ctx.on () then
        Stats.Histogram.add (rtt_hist ()) (Engine.Time.to_float_us sample);
      conn.timed_seq <- -1
    end;
    if Telemetry.Ctx.on () then
      probe_event conn ~kind:Telemetry.Events.Ack ~size:0 ~a:acked
        ~b:(int_of_float conn.cwnd);
    if in_recovery conn then
      (* NewReno partial ACK: the next hole is missing too. *)
      retransmit_head conn
    else grow_cwnd conn acked;
    if seg.ece then ecn_response conn;
    dctcp_account conn ~acked ~ece:seg.ece;
    arm_rto conn;
    if conn.fin_seq >= 0 && conn.snd_una > conn.fin_seq then finish_close conn
    else try_send conn
  end
  else if
    seg.ack = conn.snd_una && outstanding conn && seg.payload = 0
    && (not seg.syn) && (not seg.fin) && seg.rwnd = prev_rwnd
  then begin
    conn.dupacks <- conn.dupacks + 1;
    if conn.dupacks = 3 && not (in_recovery conn) then enter_loss_recovery conn
    else if conn.dupacks > 3 && in_recovery conn then begin
      (* Window inflation: each further dup-ACK means a packet left the
         network, so let a new one in (keeps the pipe busy during
         recovery instead of stalling until RTO). *)
      conn.cwnd <- conn.cwnd +. mssf;
      try_send conn
    end
  end
  else if seg.rwnd <> prev_rwnd then
    (* Window update. *)
    try_send conn

(* ------------------------------------------------------------------ *)
(* Receive path                                                         *)

let read conn n =
  let n = Int.min n conn.buffered in
  if n > 0 then begin
    let avail_before = conn.c_rcv_buf - conn.buffered in
    conn.buffered <- conn.buffered - n;
    let avail_after = conn.c_rcv_buf - conn.buffered in
    if avail_before < mss_bytes && avail_after >= mss_bytes
       && conn.state <> Closed
    then send_pure_ack ~ece:false conn
  end

let deliver conn n =
  if n > 0 then begin
    conn.delivered <- conn.delivered + n;
    conn.stack.t_rx_bytes <- conn.stack.t_rx_bytes + n;
    conn.buffered <- conn.buffered + n;
    (match conn.on_data with Some f -> f conn n | None -> ());
    if conn.auto_read then read conn n
  end

let check_peer_fin conn =
  if conn.remote_fin_seq >= 0 && conn.rcv_nxt = conn.remote_fin_seq
     && not conn.peer_fin_done
  then begin
    conn.rcv_nxt <- conn.rcv_nxt + 1;
    conn.peer_fin_done <- true;
    conn.stack.t_rx_msgs <- conn.stack.t_rx_msgs + 1;
    (* One message = one connection: FIN seen is message complete, and
       [c_opened_at] on the passive side is SYN arrival, so this is the
       receiver-observed per-message latency. *)
    if Telemetry.Ctx.on () then begin
      let latency =
        Engine.Sim.now conn.stack.t_sim - conn.c_opened_at
      in
      Stats.Histogram.add (msg_latency_hist ())
        (Engine.Time.to_float_us latency);
      probe_event conn ~kind:Telemetry.Events.Complete ~size:conn.delivered
        ~a:conn.local_port
        ~b:(int_of_float (Engine.Time.to_float_us latency))
    end;
    match conn.on_peer_fin with Some f -> f conn | None -> ()
  end

(* Insert [lo, hi) into the sorted disjoint interval list. *)
let rec insert_interval lo hi = function
  | [] -> [ (lo, hi) ]
  | (l, h) :: rest ->
    if hi < l then (lo, hi) :: (l, h) :: rest
    else if h < lo then (l, h) :: insert_interval lo hi rest
    else insert_interval (Int.min lo l) (Int.max hi h) rest

let process_data conn (seg : Tcp_wire.t) (pkt : Netsim.Packet.t) =
  if seg.fin then
    conn.remote_fin_seq <- seg.seq + seg.payload;
  let seq = seg.seq and len = seg.payload in
  let avail = conn.c_rcv_buf - conn.buffered in
  if len > 0 then begin
    if seq = conn.rcv_nxt then begin
      let accept = Int.min len avail in
      conn.rcv_nxt <- conn.rcv_nxt + accept;
      deliver conn accept;
      (* Pull any now-contiguous out-of-order data. *)
      let rec merge () =
        match conn.ooo with
        | (lo, hi) :: rest when lo <= conn.rcv_nxt ->
          conn.ooo <- rest;
          if hi > conn.rcv_nxt then begin
            let gain = hi - conn.rcv_nxt in
            conn.rcv_nxt <- hi;
            deliver conn gain
          end;
          merge ()
        | _ -> ()
      in
      merge ()
    end
    else if seq > conn.rcv_nxt && seq + len <= conn.rcv_nxt + avail then
      conn.ooo <- insert_interval seq (seq + len) conn.ooo
    (* else: old or window-overflowing data; the cumulative ACK below
       tells the sender where we stand. *)
  end;
  check_peer_fin conn;
  send_pure_ack ~ece:(Netsim.Packet.ecn_ce pkt) conn

(* ------------------------------------------------------------------ *)
(* Connection setup and dispatch                                        *)

let make_conn stack ~peer ~local_port ~remote_port ~rcv_buf ~state =
  let placeholder = Engine.Sim.timer stack.t_sim ignore in
  let conn =
    { stack; peer; local_port; remote_port; c_rcv_buf = rcv_buf; state;
      snd_una = 0; snd_nxt = 0; app_buffer = 0; fin_pending = false;
      fin_seq = -1; cwnd = float_of_int init_cwnd_bytes;
      ssthresh = float_of_int infinite; peer_rwnd = infinite; dupacks = 0;
      recover = 0; reduce_end = 0;
      (* simlint: allow H103 — once per connection, at setup *)
      rtx = Rtx.create ~min_rto:stack.t_min_rto ();
      rto_tm = placeholder; rto_set = false; persist_tm = placeholder;
      timed_seq = -1; timed_at = 0;
      (* alpha starts at 1 (RFC 8257): the first marked window halves,
         avoiding the slow-start overshoot a zero alpha would allow. *)
      alpha = 1.0; ce_window_end = 1; acked_win = 0; marked_win = 0;
      rcv_nxt = 0; ooo = []; remote_fin_seq = -1; peer_fin_done = false;
      delivered = 0; buffered = 0; auto_read = true;
      consec_rtos = 0; c_aborted = false; on_error = None; on_data = None;
      on_close = None; on_peer_fin = None; on_drain = None;
      n_retransmits = 0; n_timeouts = 0;
      c_opened_at = Engine.Sim.now stack.t_sim; c_closed_at = None;
      stall_since = None; stall_total = 0 }
  in
  conn.rto_tm <- Engine.Sim.timer stack.t_sim (fun () -> on_rto conn);
  conn.persist_tm <- Engine.Sim.timer stack.t_sim (fun () -> on_persist conn);
  conn

let handle_syn stack (seg : Tcp_wire.t) (pkt : Netsim.Packet.t) =
  match Itbl.find_opt stack.listeners seg.dst_port with
  | None -> ()
  | Some (rcv_buf, accept) ->
    let conn =
      match Conns.find_opt stack.conns (segment_key stack seg pkt) with
      | Some existing -> existing (* duplicate SYN: re-answer *)
      | None ->
        let conn =
          make_conn stack ~peer:pkt.Netsim.Packet.src
            ~local_port:seg.dst_port ~remote_port:seg.src_port ~rcv_buf
            ~state:Established
        in
        conn.rcv_nxt <- seg.seq + 1;
        add_conn stack conn;
        accept conn;
        conn
    in
    (* SYN-ACK consumes our sequence byte 0. *)
    emit conn ~syn:true ~fin:false ~is_ack:true ~ece:false ~probe:false
      ~seq:0 ~payload:0;
    if conn.snd_nxt = 0 then conn.snd_nxt <- 1

let handle_segment stack (seg : Tcp_wire.t) (pkt : Netsim.Packet.t) =
  if seg.syn && not seg.is_ack then handle_syn stack seg pkt
  else
    match Conns.find_opt stack.conns (segment_key stack seg pkt) with
    | None -> ()
    | Some conn ->
      if seg.syn && seg.is_ack && conn.state = Syn_sent then begin
        (* Handshake complete on the active side. *)
        conn.state <- Established;
        conn.rcv_nxt <- seg.seq + 1;
        conn.peer_rwnd <- seg.rwnd;
        if seg.ack > conn.snd_una then conn.snd_una <- seg.ack;
        Rtx.observe conn.rtx
          (Engine.Sim.now stack.t_sim - conn.c_opened_at);
        conn.timed_seq <- -1;
        Engine.Sim.disarm conn.rto_tm;
        conn.rto_set <- false;
        send_pure_ack ~ece:false conn;
        try_send conn
      end
      else begin
        if seg.is_ack then process_ack conn seg;
        if conn.state <> Closed then begin
          if seg.payload > 0 || seg.fin then process_data conn seg pkt
          else if seg.probe then send_pure_ack ~ece:false conn
        end
      end

let concerns_us stack (seg : Tcp_wire.t) (pkt : Netsim.Packet.t) =
  if seg.syn && not seg.is_ack then Itbl.mem stack.listeners seg.dst_port
  else Conns.mem stack.conns (segment_key stack seg pkt)

let claim stack pkt =
  match pkt.Netsim.Packet.payload with
  | Tcp_wire.Tcp seg when concerns_us stack seg pkt ->
    handle_segment stack seg pkt;
    true
  | _ -> false

let attach ?(cc = Reno) ?snd_buf ?(min_rto = Engine.Time.us 50)
    ?(max_retries = 15) ?(entity = 0) host =
  let node = Netsim.Host.node host in
  let stack =
    { t_node = node; t_sim = Netsim.Node.sim node; t_cc = cc;
      t_snd_buf = (match snd_buf with Some b -> b | None -> infinite);
      t_min_rto = min_rto; t_max_retries = max_retries; t_entity = entity;
      conns = Conns.create 32;
      scratch = { k_port = 0; k_peer = 0; k_rport = 0 };
      listeners = Itbl.create 4; next_port = 10_000;
      t_tx_msgs = 0; t_rx_msgs = 0; t_rx_bytes = 0; t_retx = 0 }
  in
  if Telemetry.Ctx.on () then begin
    let reg = Telemetry.Ctx.metrics () in
    let addr = Netsim.Node.addr node in
    let g n f =
      (* simlint: allow H101 — gauge names are built once, at attach *)
      Telemetry.Registry.set_gauge reg (Printf.sprintf "tcp.h%d.%s" addr n) f
    in
    g "tx_msgs" (fun () -> float_of_int stack.t_tx_msgs);
    g "rx_msgs" (fun () -> float_of_int stack.t_rx_msgs);
    g "rx_bytes" (fun () -> float_of_int stack.t_rx_bytes);
    g "retransmits" (fun () -> float_of_int stack.t_retx)
  end;
  Netsim.Host.register host ~name:"tcp" (claim stack);
  stack

let listen stack ~port ?rcv_buf accept =
  let rcv_buf = match rcv_buf with Some b -> b | None -> infinite in
  Itbl.replace stack.listeners port (rcv_buf, accept)

let connect stack ~dst ~dst_port ?src_port () =
  let local_port =
    match src_port with
    | Some p -> p
    | None ->
      stack.next_port <- stack.next_port + 1;
      stack.next_port
  in
  let conn =
    make_conn stack ~peer:dst ~local_port ~remote_port:dst_port
      ~rcv_buf:infinite ~state:Syn_sent
  in
  add_conn stack conn;
  emit conn ~syn:true ~fin:false ~is_ack:false ~ece:false ~probe:false ~seq:0
    ~payload:0;
  conn.snd_nxt <- 1;
  arm_rto conn;
  conn

(* ------------------------------------------------------------------ *)
(* Application interface                                                *)

let send conn n =
  if n < 0 then invalid_arg "Tcp.send: negative";
  if conn.fin_pending then invalid_arg "Tcp.send: already closed";
  conn.app_buffer <- conn.app_buffer + n;
  try_send conn

let close conn =
  if not conn.fin_pending then begin
    conn.fin_pending <- true;
    try_send conn
  end

let set_auto_read conn flag =
  conn.auto_read <- flag;
  if flag then read conn conn.buffered

let set_on_data conn f = conn.on_data <- Some f
let set_on_drain conn f = conn.on_drain <- Some f
let set_on_close conn f = conn.on_close <- Some f
let set_on_peer_fin conn f = conn.on_peer_fin <- Some f
let set_on_error conn f = conn.on_error <- Some f

let bytes_delivered conn = conn.delivered
let rx_buffered conn = conn.buffered
let send_buffered conn = conn.app_buffer
let unacked conn = conn.snd_nxt - conn.snd_una
let cwnd_bytes conn = int_of_float conn.cwnd
let ssthresh_bytes conn = int_of_float conn.ssthresh
let retransmits conn = conn.n_retransmits
let timeouts conn = conn.n_timeouts
let is_open conn = conn.state <> Closed
let aborted conn = conn.c_aborted
let mss (_ : conn) = mss_bytes

let stall_time conn =
  match conn.stall_since with
  | None -> conn.stall_total
  | Some since ->
    conn.stall_total + (Engine.Sim.now conn.stack.t_sim - since)

(* A backlogged byte stream: refill whenever the send buffer dips
   below one chunk. *)
let stream t ~dst ~dst_port ?(chunk = 1_000_000) () =
  let conn = connect t ~dst ~dst_port () in
  set_on_drain conn (fun conn ->
      if send_buffered conn < chunk then send conn chunk);
  send conn (2 * chunk);
  conn

(* ------------------------------------------------------------------ *)
(* Unified transport interface                                          *)

module Messaging = struct
  type nonrec t = t

  let id = "tcp"

  let node = node

  let listen t ~port ?on_data ?on_message () =
    listen t ~port (fun conn ->
        (match on_data with
        | Some f -> set_on_data conn (fun _ n -> f n)
        | None -> ());
        match on_message with
        | Some f ->
          set_on_peer_fin conn (fun conn ->
              f
                { Netsim.Transport_intf.msg_src = conn.peer;
                  msg_src_port = conn.remote_port;
                  msg_size = conn.delivered;
                  msg_latency =
                    Engine.Sim.now t.t_sim - conn.c_opened_at })
        | None -> ())

  (* One message = one connection, closed after the last byte; the
     completion time is FIN-acked minus connect, i.e. the flow
     completion time. *)
  let send_message t ~dst ~dst_port ?tc:_ ?on_complete ~size () =
    t.t_tx_msgs <- t.t_tx_msgs + 1;
    let conn = connect t ~dst ~dst_port () in
    (match on_complete with
    | Some f ->
      set_on_close conn (fun conn ->
          match conn.c_closed_at with
          | Some at -> f (at - conn.c_opened_at)
          | None -> ())
    | None -> ());
    send conn size;
    close conn

  let stream t ~dst ~dst_port ?tc:_ () = ignore (stream t ~dst ~dst_port ())

  let stats t =
    { Netsim.Transport_intf.tx_messages = t.t_tx_msgs;
      rx_messages = t.t_rx_msgs;
      rx_bytes = t.t_rx_bytes;
      retransmits = t.t_retx }
end
