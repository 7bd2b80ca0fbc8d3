(* Deterministic multicore job runner.

   The evaluation is a grid of independent seeded simulations — sweep
   points, multi-seed replications, whole exhibits — i.e. closed jobs:
   every job builds its own [Sim], draws from its own derived seed and
   returns a value; no job touches another's state.  That makes the
   grid embarrassingly parallel, and the only thing a runner must add
   on top of [Domain.spawn] is a *determinism contract*:

     the returned list is a function of the input list alone —
     in input order, independent of worker count, scheduling or
     which domain ran which job.

   Workers pull job indices from one atomic counter (work stealing in
   its simplest form: contention is one fetch-and-add per job, and job
   granularity here is milliseconds of simulation, not nanoseconds).
   Each result lands in a dedicated slot of a pre-sized array, so
   slots are written by exactly one domain and published to the main
   domain by [Domain.join]'s happens-before edge.  Exceptions are
   captured per job — together with their raw backtrace, taken at the
   catch site — and re-raised after the pool drains with
   [Printexc.raise_with_backtrace], so the trace points at the
   crashing job, not at the drain loop.  The one from the first
   failing index wins, so failures are as reproducible as results. *)

let default_jobs () = Domain.recommended_domain_count ()

type 'a outcome =
  | Pending
  | Value of 'a
  | Raised of exn * Printexc.raw_backtrace

let map ?jobs f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let requested = match jobs with Some j -> j | None -> default_jobs () in
  if requested < 1 then
    invalid_arg "Runner.Pool.map: jobs must be >= 1 (0 means auto only at \
                 the CLI)";
  let workers = max 1 (min requested n) in
  let slots = Array.make n Pending in
  (* The backtrace is captured at the catch site, on the worker
     domain, and re-raised on the main domain after the drain — a bare
     [raise] there would report the drain loop instead of the crashing
     job. *)
  let execute i =
    slots.(i) <-
      (try Value (f arr.(i))
       with e -> Raised (e, Printexc.get_raw_backtrace ()))
  in
  if workers = 1 then
    (* Serial path: no domains at all, so [~jobs:1] behaves exactly
       like a plain [List.map] (and keeps single-core CI runs free of
       spawn overhead). *)
    for i = 0 to n - 1 do
      execute i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          execute i;
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned
  end;
  Array.iter
    (function
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
      | Pending | Value _ -> ())
    slots;
  List.init n (fun i ->
      match slots.(i) with
      | Value v -> v
      | Pending | Raised _ ->
        (* Unreachable: every index below [n] is claimed exactly once
           before the counter passes it, and any [Raised] slot was
           re-raised above. *)
        assert false)
