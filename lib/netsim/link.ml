(* A point-to-point link: qdisc + serialisation + propagation delay.

   Two datapaths share one observable model (pinned per link at
   [create] from [Datapath.enabled]):

   - classic: one transmit-completion event and one delivery event per
     packet — the reference semantics, kept verbatim for the
     differential oracle;
   - batched: the same state machine, but a transmit completion walks
     forward across the following completions inside one event, up to
     [Datapath.burst_limit] packets per activation.

   The walk preserves the classic event order exactly, not just
   approximately.  The rule: an event may be elided only when the heap
   proves it would have been dispatched next anyway ([Sim.try_advance]
   for gaps; [Sim.plan]/[Sim.run_plan_inline] reserve the next
   completion's same-instant position without a heap round-trip), and
   any event that must survive is armed — or a kept reservation
   committed with its reserved seq — at precisely the instant the
   classic machine would have scheduled it, so it carries the same
   position in the same-instant FIFO order.
   Ties between one link's completion and another's delivery are
   common (rates and delays are commensurate, so distinct links
   collide at the same nanosecond constantly), and queue-depth reads —
   hence ECN marks, hence throughput — depend on how those ties
   resolve; keeping the surviving events' (time, seq) keys identical
   makes batching unobservable, byte-for-byte.  When the heap is busy
   the walk degrades to one event per packet — the classic shape; when
   the heap is quiet (a queue draining back-to-back, zero-delay hops)
   a whole burst runs inline in one event.

   In-flight packets sit in a ring; deliveries are FIFO because
   completion times are monotonic and the propagation delay is
   constant.  Forwarding a packet allocates nothing in the link.

   Links can fail ([set_down]/[set_up]): a down link refuses new
   packets, flushes its queue, loses the packet being serialised and
   any still propagating, and pauses the transmitter until revived.
   All fault-induced losses are counted in [fault_drops] so a
   conservation audit can account for every packet. *)

type t = {
  sim : Engine.Sim.t;
  link_name : string;
  link_rate : Engine.Time.rate;
  link_delay : Engine.Time.t;
  batched : bool;
  mutable q : Qdisc.t;
  mutable dst : (Packet.t -> unit) option;
  mutable dst_burst : (pull:(unit -> Packet.t option) -> unit) option;
  mutable taps : (Engine.Time.t -> Packet.t -> unit) list; (* forward order *)
  mutable transmitting : bool;
  mutable up : bool;
  mutable sent_bytes : int;
  mutable n_fault_drops : int;
  (* Conservation-ledger counters: every packet offered to [send] and
     every packet handed to the destination, whichever datapath.  With
     the qdisc's own drop count these close the per-link invariant
     sends = delivered + drops + fault_drops + queued + in-flight. *)
  mutable n_sends : int;
  mutable n_delivered : int;
  flight : Pktring.t;
  pool : Packet.pool option;
  mutable cur : Packet.t;
  (* classic machinery *)
  mutable tx_ev : Engine.Sim.handle option;
  mutable on_tx_done : unit -> unit;
  mutable on_deliver : unit -> unit;
  (* batched machinery: one re-armable timer, the completion time it
     is (or would be) armed for, the per-activation walk budget, and
     the hand-off state for pull-driven burst delivery. *)
  mutable tx_timer : Engine.Sim.timer;
  mutable b_comp : Engine.Time.t;
  mutable b_budget : int;
  mutable b_pending : Packet.t;
  mutable b_pull : unit -> Packet.t option;
}

(* The no-tap guard is load-bearing: [List.iter]'s closure captures
   [t] and [p], so building it unconditionally would allocate on every
   delivered packet. *)
let deliver t p =
  t.n_delivered <- t.n_delivered + 1;
  if t.taps != [] then List.iter (fun f -> f (Engine.Sim.now t.sim) p) t.taps;
  match t.dst with
  | Some handler -> handler p
  | None -> failwith ("Link " ^ t.link_name ^ ": destination not wired")

(* Structured telemetry: one guarded branch when disabled, and when
   enabled the ring write itself allocates nothing ([point] is the
   link's retained name).  [a]/[b] carry the instantaneous queue
   state. *)
let ev_emit t ~kind (p : Packet.t) =
  (* simlint: allow T201 — emit helper, every caller guards with Ctx.on *) (* simlint: allow P102 — same audit: the Ctx.on guard sits at each call site *)
  Telemetry.Events.emit
    (Telemetry.Ctx.events ())
    ~at:(Engine.Sim.now t.sim) ~kind ~point:t.link_name ~uid:p.Packet.uid
    ~src:p.Packet.src ~dst:p.Packet.dst ~size:p.Packet.size
    ~a:(t.q.Qdisc.pkt_length ()) ~b:(t.q.Qdisc.byte_length ())

let drop_faulted t p =
  t.n_fault_drops <- t.n_fault_drops + 1;
  if Telemetry.Ctx.on () then ev_emit t ~kind:Telemetry.Events.Drop p;
  match t.pool with Some pool -> Packet.release pool p | None -> ()

(* ------------------------- classic datapath ------------------------ *)

let rec transmit_next t =
  match t.q.Qdisc.dequeue () with
  | None ->
    t.transmitting <- false;
    t.cur <- Packet.none
  | Some p ->
    t.transmitting <- true;
    t.cur <- p;
    if Telemetry.Ctx.on () then ev_emit t ~kind:Telemetry.Events.Dequeue p;
    let tx = Engine.Time.tx_time ~bytes:p.Packet.size ~rate:t.link_rate in
    t.tx_ev <- Some (Engine.Sim.after t.sim tx t.on_tx_done)

and tx_done t =
  let p = t.cur in
  t.cur <- Packet.none;
  t.tx_ev <- None;
  t.sent_bytes <- t.sent_bytes + p.Packet.size;
  Pktring.push t.flight p;
  ignore (Engine.Sim.after t.sim t.link_delay t.on_deliver);
  transmit_next t

(* ------------------------- batched datapath ------------------------ *)

(* Start serialising the queue head: the classic [transmit_next] with
   the re-armable timer in place of a fresh event.  Never walks — a
   kick happens inside some other component's handler, and jumping the
   clock under a caller that has more work to do at the current
   instant would reorder it. *)
let b_start t =
  match t.q.Qdisc.dequeue () with
  | None ->
    t.transmitting <- false;
    t.cur <- Packet.none
  | Some p ->
    t.transmitting <- true;
    t.cur <- p;
    if Telemetry.Ctx.on () then ev_emit t ~kind:Telemetry.Events.Dequeue p;
    t.b_comp <-
      Engine.Sim.now t.sim
      + Engine.Time.tx_time ~bytes:p.Packet.size ~rate:t.link_rate;
    Engine.Sim.arm t.tx_timer ~at:t.b_comp

(* One walk step, entered at the completion instant of [t.cur].  Runs
   the classic [tx_done] bookkeeping, pulls the next packet, and walks
   on across completions the heap proves uncontested.  Returns a
   packet to hand over inline — possible only on zero-delay hops whose
   delivery event would have been dispatched next anyway — or
   [Packet.none] once the activation has finished its own arming.

   Wall-order discipline, mirrored from classic [tx_done]: the
   delivery is scheduled (or its elision decided) before the dequeue
   of the next packet, and the next completion is armed after it —
   the same scheduling order, so every surviving event keeps its
   classic position among same-instant events. *)
let rec b_step t =
  t.b_budget <- t.b_budget - 1;
  let p = t.cur in
  t.cur <- Packet.none;
  t.sent_bytes <- t.sent_bytes + p.Packet.size;
  let now = Engine.Sim.now t.sim in
  let inline_ok =
    t.link_delay = 0
    && t.b_budget > 0
    && Engine.Sim.try_advance t.sim ~upto:now
  in
  if not inline_ok then begin
    Pktring.push t.flight p;
    ignore (Engine.Sim.after t.sim t.link_delay t.on_deliver)
  end;
  (match t.q.Qdisc.dequeue () with
  | None -> t.transmitting <- false
  | Some np ->
    t.cur <- np;
    if Telemetry.Ctx.on () then ev_emit t ~kind:Telemetry.Events.Dequeue np;
    t.b_comp <-
      now + Engine.Time.tx_time ~bytes:np.Packet.size ~rate:t.link_rate);
  if inline_ok then begin
    (* The inline delivery runs user code; the next completion must
       already hold its classic place in the event order before that
       code can schedule anything.  [plan] reserves exactly the seq an
       [arm] here would take — without the heap insertion — and the
       driver resumes with [run_plan_inline], or commits the
       reservation as a real event if something intervenes. *)
    if t.cur != Packet.none then Engine.Sim.plan t.tx_timer ~at:t.b_comp;
    p
  end
  else if t.cur == Packet.none then Packet.none
  else if t.b_budget > 0 && Engine.Sim.try_advance t.sim ~upto:t.b_comp then
    (* Nothing is due before the next completion: the classic event
       would be dispatched next, so elide it and keep walking. *)
    b_step t
  else begin
    Engine.Sim.arm t.tx_timer ~at:t.b_comp;
    Packet.none
  end

(* The pull handed to a burst-aware destination ({!set_dst_burst}):
   each call resumes the walk and yields the next inline delivery —
   taps applied at its arrival instant — or [None] once the
   activation is over.  After each handed-out packet the downstream
   code may have scheduled events or re-kicked the link;
   [run_plan_inline] re-decides from the heap root whether our
   reserved completion still fires before anything else. *)
let pull_step t =
  let p =
    if t.b_pending != Packet.none then begin
      let p = t.b_pending in
      t.b_pending <- Packet.none;
      p
    end
    else if t.b_budget > 0 && Engine.Sim.run_plan_inline t.tx_timer then
      b_step t
    else Packet.none
  in
  if p == Packet.none then None
  else begin
    t.n_delivered <- t.n_delivered + 1;
    (* Guarded as in [deliver]: the iteration closure would allocate. *)
    if t.taps != [] then
      List.iter (fun f -> f (Engine.Sim.now t.sim) p) t.taps;
    Some p
  end

(* Timer activation: walk, delivering inline packets between steps.
   With a burst-aware destination the whole activation is one call —
   the destination drains the pull itself (e.g. a switch routing the
   burst in one pass); otherwise each packet goes through the
   per-packet destination. *)
let b_activation t =
  t.b_budget <- Datapath.burst_limit ();
  let p = b_step t in
  if p != Packet.none then begin
    match t.dst_burst with
    | Some f ->
      t.b_pending <- p;
      f ~pull:t.b_pull
    | None ->
      let pending = ref p in
      while !pending != Packet.none do
        deliver t !pending;
        pending :=
          if t.b_budget > 0 && Engine.Sim.run_plan_inline t.tx_timer then
            b_step t
          else Packet.none
      done
  end;
  (* A reservation the walk could not run inline (budget exhausted, or
     an interleaving event) must become a real heap event before we
     return to the dispatcher. *)
  if Engine.Sim.planned t.tx_timer then Engine.Sim.commit_plan t.tx_timer

(* ----------------------------- common ------------------------------ *)

let create sim ~name ~rate ~delay ?qdisc ?pool () =
  let q = match qdisc with Some q -> q | None -> Qdisc.fifo ~cap_pkts:1000 () in
  let batched = Datapath.enabled () in
  let dummy = Engine.Sim.timer sim (fun () -> ()) in
  let t =
    { sim; link_name = name; link_rate = rate; link_delay = delay; batched; q;
      dst = None; dst_burst = None; taps = []; transmitting = false;
      up = true; sent_bytes = 0; n_fault_drops = 0; n_sends = 0;
      n_delivered = 0; cur = Packet.none;
      tx_ev = None; flight = Pktring.create (); pool;
      on_tx_done = ignore; on_deliver = ignore;
      tx_timer = dummy; b_comp = 0; b_budget = 0;
      b_pending = Packet.none; b_pull = (fun () -> None) }
  in
  t.on_tx_done <- (fun () -> tx_done t);
  t.on_deliver <-
    (fun () ->
      (* Packets still propagating when the link went down are lost
         with it (the delivery event fires regardless, to keep the
         flight ring in order). *)
      let p = Pktring.pop t.flight in
      if t.up then deliver t p else drop_faulted t p);
  t.tx_timer <- Engine.Sim.timer sim (fun () -> b_activation t);
  t.b_pull <- (fun () -> pull_step t);
  (* Queue-depth, drop, mark and trim metrics; gauges read the live
     qdisc (through [t], so [set_qdisc] swaps are followed) and cost
     nothing until a snapshot samples them. *)
  if Telemetry.Ctx.on () then begin
    let reg = Telemetry.Ctx.metrics () in
    (* simlint: allow H101 — one-time gauge naming at create, not per packet *)
    let pre = "link." ^ name ^ "." in
    (* simlint: allow H101 — one-time gauge naming at create, not per packet *)
    let g n f = Telemetry.Registry.set_gauge reg (pre ^ n) f in
    g "queue_pkts" (fun () -> float_of_int (t.q.Qdisc.pkt_length ()));
    g "queue_bytes" (fun () -> float_of_int (t.q.Qdisc.byte_length ()));
    g "max_queue_bytes" (fun () -> float_of_int (t.q.Qdisc.max_bytes_seen ()));
    g "drops" (fun () -> float_of_int (t.q.Qdisc.drops ()));
    g "marks" (fun () -> float_of_int (t.q.Qdisc.marks ()));
    g "trims" (fun () -> float_of_int (t.q.Qdisc.trims ()));
    g "sent_bytes" (fun () -> float_of_int t.sent_bytes);
    g "fault_drops" (fun () -> float_of_int t.n_fault_drops)
  end;
  t

let set_dst t handler = t.dst <- Some handler

let set_dst_burst t handler = t.dst_burst <- Some handler

(* simlint: allow H101 — topology wiring, runs once per tap at setup *)
let add_tap t f = t.taps <- t.taps @ [ f ]

let kick t =
  if not t.transmitting then
    if t.batched then b_start t else transmit_next t

let send t p =
  t.n_sends <- t.n_sends + 1;
  if not t.up then drop_faulted t p
  else if not (Telemetry.Ctx.on ()) then begin
    (* Uninstrumented fast path: byte-for-byte the pre-telemetry code. *)
    if t.q.Qdisc.enqueue p then kick t
    else
      (* Tail drop: with a pool the dropped packet goes straight back. *)
      match t.pool with Some pool -> Packet.release pool p | None -> ()
  end
  else begin
    (* The qdisc may mark or trim the packet during enqueue; comparing
       the flags around the call attributes those events to this hop
       without touching every qdisc implementation. *)
    let was_ce = Packet.ecn_ce p in
    let was_trimmed = Packet.trimmed p in
    if t.q.Qdisc.enqueue p then begin
      ev_emit t ~kind:Telemetry.Events.Enqueue p;
      if Packet.ecn_ce p && not was_ce then
        ev_emit t ~kind:Telemetry.Events.Mark p;
      if Packet.trimmed p && not was_trimmed then
        ev_emit t ~kind:Telemetry.Events.Trim p;
      kick t
    end
    else begin
      ev_emit t ~kind:Telemetry.Events.Drop p;
      match t.pool with Some pool -> Packet.release pool p | None -> ()
    end
  end

let qdisc t = t.q

let set_qdisc t q = t.q <- q

let is_up t = t.up

let set_down t =
  if t.up then begin
    t.up <- false;
    (* Abort the serialisation in progress.  Fully serialised packets
       stay in flight and are lost (or delivered, if the link is
       revived in time) at their arrival instant. *)
    if t.batched then Engine.Sim.disarm t.tx_timer
    else (
      match t.tx_ev with
      | Some ev ->
        Engine.Sim.cancel t.sim ev;
        t.tx_ev <- None
      | None -> ());
    if t.cur != Packet.none then begin
      drop_faulted t t.cur;
      t.cur <- Packet.none
    end;
    t.transmitting <- false;
    (* Flush the queue: a dead link holds no packets. *)
    let rec flush () =
      match t.q.Qdisc.dequeue () with
      | Some p ->
        drop_faulted t p;
        flush ()
      | None -> ()
    in
    flush ()
  end

let set_up t =
  if not t.up then begin
    t.up <- true;
    kick t
  end

let rate t = t.link_rate
let name t = t.link_name
let sim t = t.sim

let bytes_sent t = t.sent_bytes

let busy t = t.transmitting
let fault_drops t = t.n_fault_drops
let sends t = t.n_sends
let delivered_pkts t = t.n_delivered

let queued_pkts t = t.q.Qdisc.pkt_length ()

let in_flight_pkts t =
  Pktring.length t.flight + if t.transmitting then 1 else 0

let utilization t ~since =
  let elapsed = Engine.Sim.now t.sim - since in
  (* Guard: [since = now] (or a future [since]) yields no elapsed time
     to average over — report zero rather than dividing by it. *)
  if elapsed <= 0 then 0.0
  else
    float_of_int (bytes_sent t * 8)
    /. (float_of_int t.link_rate *. Engine.Time.to_float_s elapsed)
