(* A point-to-point link: qdisc + serialisation + propagation delay.

   The ns-3 point-to-point event order: one transmit-completion event
   and one delivery event per packet.  The completion runs on the
   link's one re-armable timer, so a steady stream of packets allocates
   no event closure; each delivery is a fresh event scheduled at the
   completion instant, before the next packet is dequeued, so among
   same-instant events it keeps the position every queue decision
   (ECN marks, trims, pathlet feedback) depends on.

   In-flight packets sit in a ring; deliveries are FIFO because
   completion times are monotonic and the propagation delay is
   constant.  The qdisc answers an empty queue with [Packet.none]
   rather than an option, so forwarding a packet allocates nothing in
   the link.

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
  mutable q : Qdisc.t;
  mutable dst : (Packet.t -> unit) option;
  mutable taps : (Engine.Time.t -> Packet.t -> unit) list; (* forward order *)
  mutable transmitting : bool;
  mutable up : bool;
  mutable sent_bytes : int;
  mutable n_fault_drops : int;
  (* Conservation-ledger counters: every packet offered to [send] and
     every packet handed to the destination.  With the qdisc's own drop
     count these close the per-link invariant
     sends = delivered + drops + fault_drops + queued + in-flight. *)
  mutable n_sends : int;
  mutable n_delivered : int;
  flight : Pktring.t;
  pool : Packet.pool;  (* where every dropped packet goes *)
  mutable cur : Packet.t;  (* the packet being serialised *)
  mutable on_deliver : unit -> unit;
  mutable tx_timer : Engine.Sim.timer;  (* fires at [cur]'s completion *)
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
  (* simlint: allow T201 — emit helper, every caller guards with Ctx.on *)
  Telemetry.Events.emit
    (Telemetry.Ctx.events ())
    ~at:(Engine.Sim.now t.sim) ~kind ~point:t.link_name ~uid:p.Packet.uid
    ~src:p.Packet.src ~dst:p.Packet.dst ~size:p.Packet.size
    ~a:(t.q.Qdisc.pkt_length ()) ~b:(t.q.Qdisc.byte_length ())

let drop_faulted t p =
  t.n_fault_drops <- t.n_fault_drops + 1;
  if Telemetry.Ctx.on () then ev_emit t ~kind:Telemetry.Events.Drop p;
  Packet.release t.pool p

(* Start serialising the queue head; its completion fires [tx_done]. *)
let start t =
  let p = t.q.Qdisc.dequeue () in
  if p == Packet.none then t.transmitting <- false
  else begin
    t.transmitting <- true;
    t.cur <- p;
    if Telemetry.Ctx.on () then ev_emit t ~kind:Telemetry.Events.Dequeue p;
    Engine.Sim.arm t.tx_timer
      ~at:
        (Engine.Sim.now t.sim
        + Engine.Time.tx_time ~bytes:p.Packet.size ~rate:t.link_rate)
  end

(* The timer's action at [cur]'s completion.  The delivery is
   scheduled before [start] arms the next completion, so at a tie it
   is dispatched first. *)
let tx_done t =
  let p = t.cur in
  t.cur <- Packet.none;
  t.sent_bytes <- t.sent_bytes + p.Packet.size;
  Pktring.push t.flight p;
  Engine.Sim.after t.sim t.link_delay t.on_deliver;
  start t

let create pool ~name ~rate ~delay ?qdisc () =
  let sim = Packet.pool_sim pool in
  let q = match qdisc with Some q -> q | None -> Qdisc.fifo ~cap_pkts:1000 () in
  let dummy = Engine.Sim.timer sim ignore in
  let t =
    { sim; link_name = name; link_rate = rate; link_delay = delay; q;
      dst = None; taps = []; transmitting = false;
      up = true; sent_bytes = 0; n_fault_drops = 0; n_sends = 0;
      n_delivered = 0; cur = Packet.none; flight = Pktring.create (); pool;
      on_deliver = ignore; tx_timer = dummy }
  in
  t.on_deliver <-
    (fun () ->
      (* Packets still propagating when the link went down are lost
         with it (the delivery event fires regardless, to keep the
         flight ring in order). *)
      let p = Pktring.pop t.flight in
      if t.up then deliver t p else drop_faulted t p);
  t.tx_timer <- Engine.Sim.timer sim (fun () -> tx_done t);
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

(* simlint: allow H101 — topology wiring, runs once per tap at setup *)
let add_tap t f = t.taps <- t.taps @ [ f ]

let kick t = if not t.transmitting then start t

(* The sentinel must never reach a qdisc: queued, it would make
   [dequeue] report an empty queue and the link would stall. *)
let send t p =
  if p == Packet.none then invalid_arg "Link.send: Packet.none";
  t.n_sends <- t.n_sends + 1;
  if not t.up then drop_faulted t p
  else begin
    (* The qdisc may mark or trim the packet during enqueue; with
       telemetry on, comparing the flags around the call attributes
       those events to this hop without touching every qdisc
       implementation. *)
    let traced = Telemetry.Ctx.on () in
    let was_ce = traced && Packet.ecn_ce p in
    let was_trimmed = traced && Packet.trimmed p in
    if t.q.Qdisc.enqueue p then begin
      if traced then begin
        ev_emit t ~kind:Telemetry.Events.Enqueue p;
        if Packet.ecn_ce p && not was_ce then
          ev_emit t ~kind:Telemetry.Events.Mark p;
        if Packet.trimmed p && not was_trimmed then
          ev_emit t ~kind:Telemetry.Events.Trim p
      end;
      kick t
    end
    else begin
      (* Tail drop: the dropped packet goes straight back. *)
      if traced then ev_emit t ~kind:Telemetry.Events.Drop p;
      Packet.release t.pool p
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
    Engine.Sim.disarm t.tx_timer;
    if t.cur != Packet.none then begin
      drop_faulted t t.cur;
      t.cur <- Packet.none
    end;
    t.transmitting <- false;
    (* Flush the queue: a dead link holds no packets. *)
    let rec flush () =
      let p = t.q.Qdisc.dequeue () in
      if p != Packet.none then begin
        drop_faulted t p;
        flush ()
      end
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
