(* Deterministic fault injection.

   A plan owns a private RNG stream (split off a seed, independent of
   the workload's randomness) and schedules every fault off [Sim]
   timers, so a given seed replays the exact same failure history.

   Faults come in two families:
   - topology faults: scheduled link down/up ({!link_down}/{!link_up})
     with optional routing reconvergence ({!reroute}) after a
     detection delay, and switch blackholes ({!blackhole});
   - packet faults: Gilbert-Elliott bursty loss and uniform
     corruption-drop, installed as qdisc wrappers that refuse doomed
     packets at enqueue time (the link then releases them to the pool,
     so nothing leaks).

   Every packet a plan destroys is counted and released to its pool,
   so [Check.Ledger]'s pool invariant holds: packets checked out of the
   pool are all either back in the pool or sitting in a queue / on a
   wire. *)

type watcher = { w_link : Link.t; w_notify : bool -> unit }

type t = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;
  mutable n_loss : int; (* Gilbert-Elliott + corruption drops *)
  mutable n_blackholed : int;
  mutable watchers : watcher list;
  mutable log : (Engine.Time.t * string) list; (* reverse order *)
}

let plan ?(seed = 1) sim =
  { sim;
    rng = Engine.Rng.create (0x5EED_FA17 lxor seed);
    n_loss = 0;
    n_blackholed = 0;
    watchers = [];
    log = [] }

let note t what =
  t.log <- (Engine.Sim.now t.sim, what) :: t.log

let events t = List.rev t.log

let notify_watchers t link up =
  List.iter
    (fun w -> if w.w_link == link then w.w_notify up)
    t.watchers

(* ------------------------- topology faults ------------------------- *)

let link_down t ~at link =
  ignore
    (Engine.Sim.schedule t.sim ~at (fun () ->
         if Link.is_up link then begin
           Link.set_down link;
           note t (Link.name link ^ " down");
           notify_watchers t link false
         end))

let link_up t ~at link =
  ignore
    (Engine.Sim.schedule t.sim ~at (fun () ->
         if not (Link.is_up link) then begin
           Link.set_up link;
           note t (Link.name link ^ " up");
           notify_watchers t link true
         end))

let reroute t routes ~port ~detect link =
  let on_change up =
    ignore
      (Engine.Sim.after t.sim detect (fun () ->
           (* Only act if the link still has the state we detected —
              a flap shorter than the detection delay goes unnoticed,
              as it would for a real failure detector. *)
           if up && Link.is_up link then begin
             Routing.restore_port routes port;
             note t (Link.name link ^ " port restored")
           end
           else if (not up) && not (Link.is_up link) then begin
             Routing.remove_port routes port;
             note t (Link.name link ^ " port withdrawn")
           end))
  in
  t.watchers <- { w_link = link; w_notify = on_change } :: t.watchers

(* -------------------------- packet faults -------------------------- *)

(* Wrap a qdisc so that [doomed] packets are refused at enqueue time.
   [Qdisc.with_hooks] cannot refuse, so this is a bespoke wrapper; the
   refusal makes {!Link.send} release the packet to the pool, and we
   count it here so the wrapper's [drops] (which a conservation ledger
   reads) includes injected losses. *)
let lossy t ~doomed q =
  let injected = ref 0 in
  let enqueue p =
    if doomed p then begin
      incr injected;
      t.n_loss <- t.n_loss + 1;
      false
    end
    else q.Qdisc.enqueue p
  in
  { q with
    Qdisc.name = q.Qdisc.name ^ "+fault";
    enqueue;
    (* Must be rebuilt from the overriding [enqueue], or bursts would
       bypass the injected losses. *)
    enqueue_burst = Qdisc.burst_of_enqueue enqueue;
    drops = (fun () -> q.Qdisc.drops () + !injected) }

let gilbert_elliott t ?(p_gb = 0.001) ?(p_bg = 0.1) ?(loss_good = 0.0)
    ?(loss_bad = 0.3) link =
  let bad = ref false in
  let doomed _p =
    (* Advance the two-state chain per packet, then draw the
       state-dependent loss. *)
    (if !bad then begin
       if Engine.Rng.float t.rng < p_bg then bad := false
     end
     else if Engine.Rng.float t.rng < p_gb then bad := true);
    let rate = if !bad then loss_bad else loss_good in
    rate > 0.0 && Engine.Rng.float t.rng < rate
  in
  Link.set_qdisc link (lossy t ~doomed (Link.qdisc link))

let corrupt t ~rate link =
  if rate < 0.0 || rate >= 1.0 then
    invalid_arg "Fault.corrupt: rate must be in [0, 1)";
  let doomed _p = rate > 0.0 && Engine.Rng.float t.rng < rate in
  Link.set_qdisc link (lossy t ~doomed (Link.qdisc link))

let blackhole t ?from ?until sw ~dst =
  let from = match from with Some x -> x | None -> 0 in
  let active now =
    now >= from && match until with Some u -> now < u | None -> true
  in
  Switch.add_ingress_hook sw (fun p ->
      if p.Packet.dst = dst && active (Engine.Sim.now t.sim) then begin
        t.n_blackholed <- t.n_blackholed + 1;
        (match Switch.pool sw with
        | Some pool -> Packet.release pool p
        | None -> ());
        Switch.Absorb
      end
      else Switch.Continue)

let loss_drops t = t.n_loss
let blackholed t = t.n_blackholed
let drops t = t.n_loss + t.n_blackholed
