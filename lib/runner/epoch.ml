(* Conservative epoch-barrier driver for parallel discrete-event
   simulation.

   [Pool.map] parallelizes *across* independent simulations; this
   module parallelizes *inside* one: the caller partitions the
   simulated world into [part]s (each owning a private event heap) and
   guarantees that any cross-partition interaction carries at least
   [lookahead] time units of latency.  Under that guarantee, events in
   the half-open window [t, t + lookahead) of different partitions
   cannot affect each other — a message emitted inside the window
   arrives at or after the window's end — so every partition may
   advance through the window concurrently.  At the window boundary
   the team barriers and the main domain alone runs [exchange], which
   moves the messages emitted during the window into their
   destination partitions in a canonical order.

   Determinism is by construction, not by luck:
   - window boundaries are a pure function of (lookahead, until) and
     the partitions' [next_time] answers, which are themselves pure
     functions of simulation state;
   - within a window each partition runs single-threaded on its own
     heap, bitwise the same code path whether the window executes on
     one domain or eight;
   - the only inter-partition communication is [exchange], which runs
     single-threaded on the main domain between windows.
   Hence the final state for a given world is byte-identical for any
   [jobs] value — the same contract [Pool] gives across jobs, extended
   to the inside of a scenario.

   Windows advance as [w0 = max t (min next_time)], so a world that
   goes quiet (all heaps empty or next event far away) skips straight
   to the next event time instead of spinning lookahead-sized epochs
   across idle regions — barrier rounds scale with events, not with
   simulated time.

   One [Pool] team serves the whole run, and each window is one
   [Pool.round] over the partitions: the team's workers stay parked
   between windows, and its failure contract (every partition of the
   window runs, then the smallest failing index re-raises) holds at
   any [jobs], 1 included.  The [advance] and [finish] work functions
   are built once and the round's [arg] carries the window limit, so a
   window allocates nothing in the runner. *)

type part = {
  advance : int -> unit;
      (* [advance limit]: run every pending event with time strictly
         below [limit]; leave the partition clock at [limit]. *)
  finish : int -> unit;
      (* [finish until]: run the events at exactly [until] (the final,
         inclusive window). *)
  next_time : unit -> int option;
      (* Earliest pending event time, [None] when idle.  A lower bound
         is acceptable (e.g. a cancelled slot), extra times only cost
         redundant windows. *)
}

let run ?(jobs = 1) ~lookahead ~until ~exchange parts =
  if lookahead <= 0 then invalid_arg "Runner.Epoch.run: lookahead must be > 0";
  if until < 0 then invalid_arg "Runner.Epoch.run: until must be >= 0";
  if jobs < 1 then invalid_arg "Runner.Epoch.run: jobs must be >= 1";
  let min_next () =
    Array.fold_left
      (fun acc p ->
        match p.next_time () with
        | None -> acc
        | Some e -> ( match acc with None -> Some e | Some a -> Some (min a e)))
      None parts
  in
  let advance i limit = parts.(i).advance limit in
  let finish i until = parts.(i).finish until in
  let n = Array.length parts in
  Pool.with_team ~jobs:(max 1 (min jobs n)) (fun team ->
      let t = ref 0 in
      while !t < until do
        let w0 =
          match min_next () with
          | None -> until (* world idle: jump to the final window *)
          | Some e -> min (max !t e) until
        in
        let w1 = min (w0 + lookahead) until in
        Pool.round team ~n ~arg:w1 advance;
        exchange ();
        t := w1
      done;
      (* Events at exactly [until]: their cross-partition emissions
         arrive strictly after [until] and are never delivered, exactly
         as a serial [Sim.run ~until] never dispatches past the limit —
         so no exchange is owed after this round. *)
      Pool.round team ~n ~arg:until finish)
