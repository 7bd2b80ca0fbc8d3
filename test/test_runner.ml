(* The parallel runner's determinism contract, unit-level and
   end-to-end.

   Unit: results come back in input order whatever the worker count,
   exceptions surface deterministically, edge shapes (empty list, more
   workers than work) hold; a qcheck property pins Pool.map to the
   serial List.map reference over arbitrary job lists, including
   raising jobs.  The epoch driver (Runner.Epoch) gets the same
   treatment on synthetic partitions: exact window sequences,
   argument validation, smallest-partition-index failures.

   End-to-end (the jobs-invariance tests): the fig5/fig6 sweeps, the
   failover experiment, sweep replications and the partitioned
   single-scenario exhibit (Ext_leafspine) must produce byte-identical
   printed output/digests at [~jobs:1] and wider.  These run the real
   exhibits at reduced scale on real domains. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------ unit ------------------------------- *)

let test_map_order () =
  let xs = List.init 50 (fun i -> i) in
  Alcotest.(check (list int))
    "map preserves input order"
    (List.map (fun x -> (x * x) + 1) xs)
    (Runner.Pool.map ~jobs:4 (fun x -> (x * x) + 1) xs)

let test_edge_shapes () =
  checki "more workers than work" 3
    (List.length (Runner.Pool.map ~jobs:16 (fun x -> x) [ 1; 2; 3 ]));
  checki "empty job list" 0
    (List.length (Runner.Pool.map ~jobs:4 (fun x -> x) []));
  checkb "jobs 0 rejected" true
    (match Runner.Pool.map ~jobs:0 Fun.id [ () ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

exception Boom of int

let test_exception_deterministic () =
  (* Two failing jobs, at indices 1 and 3; whatever the schedule, the
     first failing index's exception is the one that surfaces (not the
     smallest value's). *)
  for jobs = 1 to 4 do
    match
      Runner.Pool.map ~jobs
        (fun v -> if v > 4 then raise (Boom v) else v)
        [ 0; 7; 1; 5 ]
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom v -> checki "first failing index wins" 7 v
  done

(* ------------------------- jobs invariance ------------------------- *)

let print_to_string result =
  Format.asprintf "%a"
    (fun fmt r -> Experiments.Exp_common.print ~dump_series:true fmt r)
    result

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Write the result's CSV exports into [dir], snapshot
   (basename, contents) pairs, clean up. *)
let csv_snapshot dir result =
  let paths = Experiments.Exp_common.write_csv ~dir result in
  let snap =
    List.sort compare
      (List.map (fun p -> (Filename.basename p, read_file p)) paths)
  in
  List.iter Sys.remove paths;
  (try Sys.rmdir dir with Sys_error _ -> ());
  snap

let check_invariant name make_result =
  let r1 = make_result ~jobs:1 and r4 = make_result ~jobs:4 in
  Alcotest.(check string)
    (name ^ ": printed output byte-identical at jobs 1 and 4")
    (print_to_string r1) (print_to_string r4);
  Alcotest.(check (list (pair string string)))
    (name ^ ": CSV exports identical at jobs 1 and 4")
    (csv_snapshot ("_jobs_inv_1_" ^ name) r1)
    (csv_snapshot ("_jobs_inv_4_" ^ name) r4)

let test_fig5_sweep_invariant () =
  check_invariant "fig5-sweep" (fun ~jobs ->
      Experiments.Sweeps.fig5_rows_result
        (Experiments.Exp_common.collect ~jobs (fun emit ->
             Experiments.Sweeps.fig5_sweep_jobs ~flips_us:[ 192; 768 ]
               ~duration:(Engine.Time.ms 1) ~emit ())))

let fig6_rows ~jobs ?reps loads =
  Experiments.Exp_common.collect ~jobs (fun emit ->
      Experiments.Sweeps.fig6_sweep_jobs ~loads ?reps
        ~duration:(Engine.Time.ms 4) ~emit ())

let test_fig6_sweep_invariant () =
  check_invariant "fig6-sweep" (fun ~jobs ->
      Experiments.Sweeps.fig6_rows_result (fig6_rows ~jobs [ 0.3; 0.5 ]))

let test_failover_invariant () =
  let config =
    { Experiments.Ext_failover.default with
      Experiments.Ext_failover.t_fail = Engine.Time.ms 3;
      detect = Engine.Time.ms 2;
      t_restore = Engine.Time.ms 6;
      duration = Engine.Time.ms 10 }
  in
  check_invariant "failover" (fun ~jobs ->
      Experiments.Ext_failover.assemble config
        (Experiments.Exp_common.collect ~jobs (fun emit ->
             Experiments.Ext_failover.jobs ~config ~emit ())))

let test_sweep_reps () =
  (* Replicated fig6 sweep: jobs-invariant rows, one row per point (the
     mean over reps), and reps < 1 rejected before any cell runs. *)
  let a = fig6_rows ~jobs:1 ~reps:2 [ 0.5 ]
  and b = fig6_rows ~jobs:2 ~reps:2 [ 0.5 ] in
  checkb "reps=2 rows identical at jobs 1 and 2" true (a = b);
  checki "one row per point" 1 (List.length a);
  checkb "reps=0 rejected" true
    (match
       Experiments.Sweeps.fig6_sweep_jobs ~reps:0 ~emit:ignore ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --------------------- qcheck: pool vs serial ---------------------- *)

exception Qboom of int

(* The pool IS List.map: for an arbitrary job list (some jobs
   raising), every jobs width must produce the serial reference, and
   when any job raises, the exception of the first failing index must
   surface. *)
let prop_pool_matches_serial =
  QCheck.Test.make ~name:"Pool.map matches serial reference (incl. raises)"
    ~count:150
    QCheck.(list_of_size Gen.(1 -- 20) (pair small_int bool))
    (fun spec ->
      let indexed = List.mapi (fun i job -> (i, job)) spec in
      let f (i, (v, raises)) = if raises then raise (Qboom i) else (i, v) in
      let expect_exn =
        List.find_map (fun (i, (_, r)) -> if r then Some i else None) indexed
      in
      let reference = List.map (fun (i, (v, _)) -> (i, v)) indexed in
      List.for_all
        (fun jobs ->
          match Runner.Pool.map ~jobs f indexed with
          | got -> expect_exn = None && got = reference
          | exception Qboom i -> expect_exn = Some i)
        [ 1; 2; 3; 4 ])

(* ----------------------------- job grids --------------------------- *)

let test_run_jobs_order () =
  (* Heterogeneous grid: commits fire on main in submission order
     after all works complete, so a trailing barrier sees every slot
     filled — at any width. *)
  let go jobs =
    let slots = Array.make 4 0 in
    let log = ref [] in
    let jobs_list =
      List.init 4 (fun i ->
          Experiments.Exp_common.job
            (fun () -> (i + 1) * 10)
            ~commit:(fun v ->
              slots.(i) <- v;
              log := i :: !log))
      @ [ Experiments.Exp_common.barrier
            (fun () -> log := Array.fold_left ( + ) 0 slots :: !log) ]
    in
    Experiments.Exp_common.run_jobs ~jobs jobs_list;
    List.rev !log
  in
  Alcotest.(check (list int))
    "commit order + barrier sum, jobs=1" [ 0; 1; 2; 3; 100 ] (go 1);
  Alcotest.(check (list int))
    "commit order + barrier sum, jobs=4" [ 0; 1; 2; 3; 100 ] (go 4)

(* ------------------------------ epoch ------------------------------ *)

(* Synthetic partitions: a mutable list of event times plus a log of
   every (advance/finish) call.  Lets the tests pin the exact window
   sequence the driver computes — idle-skip to the earliest pending
   event, lookahead-wide advances, one final inclusive finish. *)
type sim_stub = {
  mutable events : int list;  (* ascending *)
  mutable calls : (char * int) list;  (* reversed: ('a', limit) / ('f', u) *)
}

let stub events = { events; calls = [] }

let part_of_stub ?boom st =
  { Runner.Epoch.advance =
      (fun limit ->
        Option.iter (fun i -> raise (Boom i)) boom;
        st.events <- List.filter (fun t -> t >= limit) st.events;
        st.calls <- ('a', limit) :: st.calls);
    finish =
      (fun u ->
        st.events <- List.filter (fun t -> t > u) st.events;
        st.calls <- ('f', u) :: st.calls);
    next_time = (fun () -> match st.events with [] -> None | t :: _ -> Some t)
  }

let test_epoch_window_sequence () =
  let run jobs =
    let a = stub [ 5; 100 ] and b = stub [ 30 ] in
    Runner.Epoch.run ~jobs ~lookahead:10 ~until:120
      ~exchange:(fun () -> ())
      [| part_of_stub a; part_of_stub b |];
    (List.rev a.calls, List.rev b.calls)
  in
  (* Windows: skip to t=5 -> advance 15; skip to 30 -> advance 40;
     skip to 100 -> advance 110; heaps empty -> one jump-to-until
     advance round, then the inclusive finish at 120. *)
  let expect =
    [ ('a', 15); ('a', 40); ('a', 110); ('a', 120); ('f', 120) ]
  in
  let a1, b1 = run 1 in
  Alcotest.(check (list (pair char int))) "part a windows, jobs=1" expect a1;
  Alcotest.(check (list (pair char int))) "part b windows, jobs=1" expect b1;
  let a2, b2 = run 2 in
  Alcotest.(check (list (pair char int)))
    "part a windows identical at jobs=2" a1 a2;
  Alcotest.(check (list (pair char int)))
    "part b windows identical at jobs=2" b1 b2

let test_epoch_validation () =
  let part = part_of_stub (stub []) in
  let invalid f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  checkb "lookahead 0 rejected" true
    (invalid (fun () ->
         Runner.Epoch.run ~lookahead:0 ~until:10 ~exchange:ignore [| part |]));
  checkb "negative until rejected" true
    (invalid (fun () ->
         Runner.Epoch.run ~lookahead:5 ~until:(-1) ~exchange:ignore [| part |]));
  checkb "jobs 0 rejected" true
    (invalid (fun () ->
         Runner.Epoch.run ~jobs:0 ~lookahead:5 ~until:10 ~exchange:ignore
           [| part |]))

let test_epoch_exception_deterministic () =
  (* Parts 1 and 2 raise in the same window, each its own exception;
     whatever the schedule, part 1 (smallest index) is the failure that
     surfaces, and the workers are all joined (subsequent runs stay
     healthy). *)
  for jobs = 1 to 4 do
    match
      Runner.Epoch.run ~jobs ~lookahead:10 ~until:50 ~exchange:ignore
        [| part_of_stub (stub [ 0 ]);
           part_of_stub ~boom:1 (stub [ 0 ]);
           part_of_stub ~boom:2 (stub [ 0 ]) |]
    with
    | () -> Alcotest.fail "expected failure"
    | exception Boom i -> checki "smallest failing partition wins" 1 i
  done

(* The failure contract both runner entry points share: an early index
   raising does not stop the round, every index still runs before the
   smallest failing one re-raises — at every width, 1 included. *)
let test_failure_runs_every_index () =
  for jobs = 1 to 4 do
    let ran = Array.make 6 false in
    (match
       Runner.Pool.map ~jobs
         (fun i ->
           ran.(i) <- true;
           if i = 0 || i = 3 then raise (Boom i))
         (List.init 6 Fun.id)
     with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> checki "Pool.map: first failing index wins" 0 i);
    checkb (Printf.sprintf "Pool.map jobs=%d ran every job" jobs) true
      (Array.for_all Fun.id ran);
    let stubs = Array.init 4 (fun _ -> stub [ 0 ]) in
    (match
       Runner.Epoch.run ~jobs ~lookahead:10 ~until:50 ~exchange:ignore
         (Array.mapi
            (fun i st -> if i = 0 then part_of_stub ~boom:0 st
              else part_of_stub st)
            stubs)
     with
    | () -> Alcotest.fail "expected Boom"
    | exception Boom i -> checki "Epoch.run: partition 0 wins" 0 i);
    Array.iteri
      (fun i st ->
        if i > 0 then
          Alcotest.(check (list (pair char int)))
            (Printf.sprintf "Epoch.run jobs=%d advanced partition %d" jobs i)
            [ ('a', 10) ] st.calls)
      stubs
  done

(* -------------------- partitioned single scenario ------------------ *)

let test_par_leafspine_jobs_invariant () =
  let module L = Experiments.Ext_leafspine in
  List.iter
    (fun (name, scheme) ->
      let config =
        { L.default with
          L.leaves = 3;
          spines = 2;
          hosts_per_leaf = 2;
          duration = Engine.Time.us 400;
          scheme }
      in
      let out jobs = L.run ~jobs config in
      let o1 = out 1 and o2 = out 2 and o4 = out 4 in
      Alcotest.(check string)
        (name ^ ": digest byte-identical, jobs 1 vs 2")
        o1.L.digest o2.L.digest;
      Alcotest.(check string)
        (name ^ ": digest byte-identical, jobs 1 vs 4")
        o1.L.digest o4.L.digest;
      checkb (name ^ ": messages completed") true (o1.L.messages > 0))
    [ ("dctcp flows", L.Dctcp_flows); ("dctcp messages", L.Dctcp_messages);
      ("mtp", L.Mtp) ]

let suite =
  [ Alcotest.test_case "map order" `Quick test_map_order;
    Alcotest.test_case "edge shapes" `Quick test_edge_shapes;
    Alcotest.test_case "deterministic exceptions" `Quick
      test_exception_deterministic;
    Alcotest.test_case "fig5 sweep jobs-invariant" `Slow
      test_fig5_sweep_invariant;
    Alcotest.test_case "fig6 sweep jobs-invariant" `Slow
      test_fig6_sweep_invariant;
    Alcotest.test_case "failover jobs-invariant" `Slow
      test_failover_invariant;
    Alcotest.test_case "sweep replications" `Slow test_sweep_reps;
    QCheck_alcotest.to_alcotest prop_pool_matches_serial;
    Alcotest.test_case "job grid commit order" `Quick test_run_jobs_order;
    Alcotest.test_case "epoch window sequence" `Quick
      test_epoch_window_sequence;
    Alcotest.test_case "epoch validation" `Quick test_epoch_validation;
    Alcotest.test_case "epoch deterministic exceptions" `Quick
      test_epoch_exception_deterministic;
    Alcotest.test_case "failure runs every index" `Quick
      test_failure_runs_every_index;
    Alcotest.test_case "par-leafspine jobs-invariant" `Slow
      test_par_leafspine_jobs_invariant ]
