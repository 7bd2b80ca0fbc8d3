type t = {
  mutable enabled : bool;
  mutable ev : Events.t;
  mutable reg : Registry.t;
  mutable runs : (string * Registry.row list) list; (* newest first *)
}

let off () =
  { enabled = false; ev = Events.create ~capacity:1 ();
    reg = Registry.create (); runs = [] }

(* Every domain starts on a disabled context of its own, its [home];
   [within] makes a staged one its [cur]rent context while a job or a
   partition runs.  Nothing is shared between domains but [live], the
   number of home contexts enabled: a staged context exists only while
   the context that staged it is enabled, so it needs no count. *)
type domain = { mutable cur : t; home : t }

let own () =
  let c = off () in
  { cur = c; home = c }

let slot = Domain.DLS.new_key own

let current () = (Domain.DLS.get slot).cur

let live = Atomic.make 0

(* The one branch every instrumented hot path takes.  With telemetry
   off everywhere this short-circuits on one atomic load, so the
   words/op guardrails are untouched; the domain-local read is paid
   only while some context is enabled. *)
let on () = Atomic.get live > 0 && (current ()).enabled

let events () = (current ()).ev

let metrics () = (current ()).reg

let fresh c ~capacity =
  c.ev <- Events.create ~capacity ();
  c.reg <- Registry.create ();
  c.runs <- []

let enable ?(events_capacity = 65_536) () =
  let c = current () in
  if not c.enabled then begin
    fresh c ~capacity:events_capacity;
    c.enabled <- true;
    if c == (Domain.DLS.get slot).home then Atomic.incr live
  end

let disable () =
  let c = current () in
  if c.enabled then begin
    c.enabled <- false;
    if c == (Domain.DLS.get slot).home then Atomic.decr live
  end

let reset () =
  let c = current () in
  if c.enabled then fresh c ~capacity:(Events.capacity c.ev)

let mark_run label =
  if on () then
    let c = current () in
    c.runs <- (label, Registry.snapshot c.reg) :: c.runs

let runs () = List.rev (current ()).runs

let stage () =
  if on () then
    Some
      { enabled = true;
        ev = Events.create ~capacity:(Events.capacity (events ())) ();
        reg = Registry.create (); runs = [] }
  else None

let within staged f =
  match staged with
  | None -> f
  | Some c ->
    fun x ->
      let d = Domain.DLS.get slot in
      let saved = d.cur in
      d.cur <- c;
      Fun.protect ~finally:(fun () -> d.cur <- saved) (fun () -> f x)

let absorb = function
  | None -> ()
  | Some s ->
    let c = current () in
    Events.absorb c.ev ~from:s.ev;
    Registry.absorb c.reg ~from:s.reg;
    c.runs <- s.runs @ c.runs;
    s.runs <- []
