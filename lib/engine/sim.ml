(* Slot-pool event core.

   The heap stores int slot indices; each slot holds the event's
   closure in a preallocated parallel array.  Scheduling therefore
   allocates nothing beyond the user's closure, and cancellation is a
   slot overwrite instead of a boxed [handle] record.  A handle packs
   (slot index, generation): the generation is bumped each time the
   slot is recycled, so a stale handle can never cancel an unrelated
   later event. *)

let noop = Sys.opaque_identity (fun () -> ())

exception
  Dispatch_error of {
    time : Time.t;
    seq : int;
    uid : int;
    inner : exn;
  }

let () =
  Printexc.register_printer (function
    | Dispatch_error { time; seq; uid; inner } ->
      Some
        (* simlint: allow H101 — exception printer, cold error path *)
        (Printf.sprintf
           "Sim.Dispatch_error: event #%d (time=%d, seq=%d) raised %s" uid
           time seq (Printexc.to_string inner))
    | _ -> None)

type handle = int

type t = {
  mutable clock : Time.t;
  heap : Eventqueue.t;
  mutable next_seq : int;
  mutable executed : int;
  root_rng : Rng.t;
  mutable next_uid : int;
  mutable actions : (unit -> unit) array;
  mutable gens : int array;
  mutable free : int array;
  mutable free_len : int;
}

let gen_bits = 31

let gen_mask = (1 lsl gen_bits) - 1

let no_handle : handle = -1

let create ?(seed = 42) () =
  let cap = 64 in
  { clock = Time.zero;
    (* simlint: allow H103 — once per simulator *)
    heap = Eventqueue.create ~capacity:cap ();
    next_seq = 0;
    executed = 0;
    root_rng = Rng.create seed;
    next_uid = 0;
    actions = Array.make cap noop;
    gens = Array.make cap 0;
    free = Array.init cap (fun i -> cap - 1 - i);
    free_len = cap }

let now t = t.clock

let rng t = t.root_rng

let fresh_uid t =
  t.next_uid <- t.next_uid + 1;
  t.next_uid

(* Only called with an empty free stack, so the new free slots are
   exactly [old_cap .. 2*old_cap - 1]. *)
let grow_slots t =
  let old_cap = Array.length t.actions in
  let cap = 2 * old_cap in
  let actions = Array.make cap noop in
  Array.blit t.actions 0 actions 0 old_cap;
  let gens = Array.make cap 0 in
  Array.blit t.gens 0 gens 0 old_cap;
  let free = Array.make cap 0 in
  for i = 0 to old_cap - 1 do
    free.(i) <- cap - 1 - i
  done;
  t.actions <- actions;
  t.gens <- gens;
  t.free <- free;
  t.free_len <- old_cap

(* Seq reservation: the one path by which an event gets its place in
   the same-instant (FIFO) order.  [schedule] reserves and inserts at
   once; the partition exchange reserves now and inserts later
   ([arm_reserved]), which keeps exactly the tie position an eager
   [schedule] would have taken, because the heap orders by (time, seq)
   and never by insertion order. *)
let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let insert t ~at ~seq action =
  if t.free_len = 0 then grow_slots t;
  let n = t.free_len - 1 in
  t.free_len <- n;
  let idx = t.free.(n) in
  t.actions.(idx) <- action;
  Eventqueue.add t.heap ~time:at ~seq idx;
  (idx lsl gen_bits) lor (t.gens.(idx) land gen_mask)

let schedule t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule: at=%d is before now=%d" at t.clock);
  insert t ~at ~seq:(reserve_seq t) action

let after t dt action = schedule t ~at:(t.clock + dt) action

let cancel t h =
  if h >= 0 then begin
    let idx = h lsr gen_bits in
    if
      idx < Array.length t.actions
      && t.gens.(idx) land gen_mask = h land gen_mask
    then t.actions.(idx) <- noop
  end

let step t =
  if Eventqueue.is_empty t.heap then false
  else begin
    let time = Eventqueue.min_time t.heap in
    let seq = Eventqueue.min_seq t.heap in
    let idx = Eventqueue.pop_min t.heap in
    t.clock <- time;
    let action = t.actions.(idx) in
    (* Recycle the slot before running the action so the action may
       itself schedule into it. *)
    t.actions.(idx) <- noop;
    t.gens.(idx) <- t.gens.(idx) + 1;
    t.free.(t.free_len) <- idx;
    t.free_len <- t.free_len + 1;
    if action != noop then begin
      t.executed <- t.executed + 1;
      try action () with
      | Dispatch_error _ as e ->
        (* Already annotated by an inner dispatch (nested [run]s);
           wrapping again would bury the original coordinates. *)
        Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ())
      | e ->
        (* Cold path: a crashing callback.  The (time, seq) key plus
           the dispatch ordinal pin the exact event in a deterministic
           replay, so any fuzz crash is immediately reproducible. *)
        let bt = Printexc.get_raw_backtrace () in
        Printexc.raise_with_backtrace
          (Dispatch_error { time; seq; uid = t.executed; inner = e })
          bt
    end;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    let continue = ref true in
    while !continue do
      if Eventqueue.is_empty t.heap then continue := false
      else if Eventqueue.min_time t.heap > limit then continue := false
      else ignore (step t)
    done;
    if t.clock < limit then t.clock <- limit

(* Epoch hooks for the conservative parallel runner (Runner.Epoch /
   Netsim.Partition).  [run_before] is the half-open window variant of
   [run]: events strictly before [limit] execute, events at exactly
   [limit] stay pending for the next window — so a window boundary
   never splits a same-instant event group between two epochs.  The
   clock still lands on [limit], which is legal as a scheduling floor
   because events at [at = now] are allowed. *)
let run_before t ~limit =
  let continue = ref true in
  while !continue do
    if Eventqueue.is_empty t.heap then continue := false
    else if Eventqueue.min_time t.heap >= limit then continue := false
    else ignore (step t)
  done;
  if t.clock < limit then t.clock <- limit

(* Conservative peek: cancelled events still occupy their heap slot,
   so the reported time may belong to a no-op — that only costs the
   epoch loop a redundant window, never correctness, and keeps the
   result a pure function of scheduling history (deterministic). *)
let next_time t =
  if Eventqueue.is_empty t.heap then None
  else Some (Eventqueue.min_time t.heap)

let pending t = Eventqueue.size t.heap

let events_processed t = t.executed

(* Re-armable timers: the wrapper closure is built once at creation,
   so arming/disarming in steady state allocates nothing. *)

type timer = {
  tm_sim : t;
  mutable tm_handle : handle;
  mutable tm_action : unit -> unit;
}

let timer t f =
  let tm =
    { tm_sim = t; tm_handle = no_handle; tm_action = noop }
  in
  tm.tm_action <-
    (fun () ->
      tm.tm_handle <- no_handle;
      f ());
  tm

let arm tm ~at =
  if tm.tm_handle >= 0 then cancel tm.tm_sim tm.tm_handle;
  tm.tm_handle <- schedule tm.tm_sim ~at tm.tm_action

let arm_after tm dt = arm tm ~at:(tm.tm_sim.clock + dt)

let arm_reserved tm ~at ~seq =
  let t = tm.tm_sim in
  if at < t.clock then invalid_arg "Sim.arm_reserved: at is before now";
  if tm.tm_handle >= 0 then cancel t tm.tm_handle;
  tm.tm_handle <- insert t ~at ~seq tm.tm_action

let disarm tm =
  if tm.tm_handle >= 0 then begin
    cancel tm.tm_sim tm.tm_handle;
    tm.tm_handle <- no_handle
  end

let armed tm = tm.tm_handle >= 0

let periodic t ~interval f =
  assert (interval > 0);
  let tm =
    { tm_sim = t; tm_handle = no_handle; tm_action = noop }
  in
  tm.tm_action <-
    (fun () ->
      tm.tm_handle <- no_handle;
      if f () then arm tm ~at:(t.clock + interval));
  arm tm ~at:(t.clock + interval);
  tm
