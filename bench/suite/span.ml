(* Outside-in span accounting for the traced pass.

   The benchmark never edits the program: it wraps the closures each
   layer exposes (qdisc records, switch forwarding functions, host
   receive handlers, the generator's sends) so that every call becomes
   a span.  A span's self time is its duration minus the time covered
   by spans that started inside it, so a qdisc enqueue issued from a
   transport's receive path is charged to the qdisc only.

   One [t] per simulator: a partitioned world gets one per partition,
   so spans on different worker domains never share an accumulator.
   Everything outside a span (event dispatch, link timers, transport
   timers) is the remainder the report calls [sim.self_s]. *)

let qdisc = 0
let routing = 1
let rx = 2
let send = 3
let layers = 4

(* Spans nest a few deep: a receive handler enqueues its ack on a
   qdisc, and a completion inside it may send the next message. *)
let max_depth = 16

type t = {
  self_s : float array;  (** Per layer. *)
  calls : int array;  (** Per layer. *)
  covered : float array;
      (** Per open depth: time covered by finished child spans; slot 0
          is the time covered by top-level spans. *)
  mutable depth : int;
  mutable bursts : int;  (** Qdisc burst-entry calls. *)
}

let create () =
  { self_s = Array.make layers 0.0;
    calls = Array.make layers 0;
    covered = Array.make max_depth 0.0;
    depth = 0;
    bursts = 0 }

(* Forget the spans recorded so far (those of the set-up), so that only
   the measured run is counted. *)
let reset t =
  Array.fill t.self_s 0 layers 0.0;
  Array.fill t.calls 0 layers 0;
  Array.fill t.covered 0 max_depth 0.0;
  t.depth <- 0;
  t.bursts <- 0

(* simlint: allow D002 — host time is what the benchmark measures *)
let clock () = Unix.gettimeofday ()

let span t layer f x =
  let d = t.depth + 1 in
  if d >= max_depth then invalid_arg "Span.span: nesting too deep";
  t.depth <- d;
  t.covered.(d) <- 0.0;
  let t0 = clock () in
  let r = f x in
  let dur = clock () -. t0 in
  t.self_s.(layer) <- t.self_s.(layer) +. dur -. t.covered.(d);
  t.calls.(layer) <- t.calls.(layer) + 1;
  t.depth <- d - 1;
  t.covered.(d - 1) <- t.covered.(d - 1) +. dur;
  r

let top_level_s t = t.covered.(0)

let wrap_qdisc t (q : Netsim.Qdisc.t) =
  { q with
    Netsim.Qdisc.enqueue = (fun p -> span t qdisc q.Netsim.Qdisc.enqueue p);
    dequeue = (fun () -> span t qdisc q.Netsim.Qdisc.dequeue ());
    enqueue_burst =
      (fun src ~rejects ->
        t.bursts <- t.bursts + 1;
        span t qdisc (fun src -> q.Netsim.Qdisc.enqueue_burst src ~rejects) src);
    dequeue_burst =
      (fun dst ~max ->
        t.bursts <- t.bursts + 1;
        span t qdisc (fun dst -> q.Netsim.Qdisc.dequeue_burst dst ~max) dst) }

let trace_link t l = Netsim.Link.set_qdisc l (wrap_qdisc t (Netsim.Link.qdisc l))

let trace_forward t sw forward =
  Netsim.Switch.set_forward sw (fun p -> span t routing forward p)

(* Call after every stack has attached: the node's handler is then
   the host's dispatcher (or the raw sink). *)
let trace_rx t node =
  match Netsim.Node.handler node with
  | Some h -> Netsim.Node.set_handler node (fun p -> span t rx h p)
  | None -> ()

let merge ts =
  let m = create () in
  Array.iter
    (fun t ->
      for l = 0 to layers - 1 do
        m.self_s.(l) <- m.self_s.(l) +. t.self_s.(l);
        m.calls.(l) <- m.calls.(l) + t.calls.(l)
      done;
      m.covered.(0) <- m.covered.(0) +. t.covered.(0);
      m.depth <- max m.depth t.depth;
      m.bursts <- m.bursts + t.bursts)
    ts;
  m
