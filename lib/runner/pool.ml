(* Deterministic multicore runner: one team of domains, two users.

   A team is the calling domain plus [jobs - 1] worker domains that
   wait on a condition variable between rounds.  A round runs
   [work i arg] for every index [i < n]: each domain of the team
   claims indices from one atomic counter until it drains (work
   stealing in its simplest form: one fetch-and-add per index), then
   the caller waits until every worker has finished the round.  Every
   index runs even after one raises; the round then re-raises the
   exception of the smallest failing index with the raw backtrace
   taken at the catch site, so failures are a function of the round,
   not of the schedule, and the trace points at the crashing index.

   A team of one spawns nothing: the caller alone claims every index
   in order, a plain loop that doubles as the reference the parallel
   path must match byte for byte.

   The two users:
   - [map] spreads a grid of closed jobs (sweep points, seeded
     replications, whole exhibits: each builds its own [Sim] and shares
     nothing) as one round over the job array.  Each result lands in
     its own slot, written by exactly one domain and published to the
     caller by the round's final handshake under the team's mutex, so
     the returned list is in input order whatever the worker count.
   - [Epoch.run] keeps one team for a whole partitioned scenario and
     runs one round per window.  Its work closures are built once and
     [arg] carries the window limit, so a window allocates nothing;
     the workers stay parked between windows (a spawn per window would
     dominate, a spin barrier would burn the cores the simulation
     needs). *)

(* The team's control block, its one exchange point.  The caller
   writes the round ([work], [n], [arg], [busy], [next]) and bumps
   [gen] under [m]; a worker that sees a new [gen] under [m] runs the
   round and counts itself out of [busy] under [m], so every write
   either side makes is published by the mutex. *)
type team = {
  size : int; (* domains in the team, the caller included *)
  m : Mutex.t;
  cv : Condition.t;
  mutable gen : int;
  mutable stopped : bool;
  mutable work : int -> int -> unit;
  mutable n : int;
  mutable arg : int;
  mutable busy : int; (* workers still in the round *)
  next : int Atomic.t;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
}

let record_failure t i e bt =
  Mutex.lock t.m;
  (match t.failed with
  | Some (j, _, _) when j < i -> ()
  | _ -> t.failed <- Some (i, e, bt));
  Mutex.unlock t.m

let rec claim t =
  let i = Atomic.fetch_and_add t.next 1 in
  if i < t.n then begin
    (try t.work i t.arg
     with e -> record_failure t i e (Printexc.get_raw_backtrace ()));
    claim t
  end

let worker t () =
  let seen = ref 0 in
  Mutex.lock t.m;
  while not t.stopped do
    if t.gen = !seen then Condition.wait t.cv t.m
    else begin
      seen := t.gen;
      Mutex.unlock t.m;
      claim t;
      Mutex.lock t.m;
      t.busy <- t.busy - 1;
      if t.busy = 0 then Condition.broadcast t.cv
    end
  done;
  Mutex.unlock t.m

let with_team ~jobs f =
  let t =
    (* simlint: allow P101 — audited exchange point: every mutable field is published under t.m (see [team]); next is Atomic *)
    { size = jobs;
      m = Mutex.create ();
      cv = Condition.create ();
      gen = 0;
      stopped = false;
      work = (fun _ _ -> ());
      n = 0;
      arg = 0;
      busy = 0;
      next = Atomic.make 0;
      failed = None }
  in
  let spawned = ref [] in
  (* Also when [f] raises, the parked workers are stopped and joined,
     or the process would abort at exit with live domains. *)
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.m;
      t.stopped <- true;
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      List.iter Domain.join !spawned)
    (fun () ->
      for _ = 2 to jobs do
        spawned := Domain.spawn (worker t) :: !spawned
      done;
      f t)

let round t ~n ~arg work =
  Mutex.lock t.m;
  t.work <- work;
  t.n <- n;
  t.arg <- arg;
  Atomic.set t.next 0;
  t.busy <- t.size - 1;
  t.gen <- t.gen + 1;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  claim t;
  Mutex.lock t.m;
  while t.busy > 0 do
    Condition.wait t.cv t.m
  done;
  let failed = t.failed in
  t.failed <- None;
  Mutex.unlock t.m;
  match failed with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map ?jobs f xs =
  let requested =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  if requested < 1 then
    invalid_arg "Runner.Pool.map: jobs must be >= 1 (0 means auto only at \
                 the CLI)";
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let slots = Array.make n None in
  with_team ~jobs:(max 1 (min requested n)) (fun team ->
      round team ~n ~arg:0 (fun i _ -> slots.(i) <- Some (f arr.(i))));
  (* Every slot is filled: the round ran every index and raised if
     any failed. *)
  List.init n (fun i -> Option.get slots.(i))
