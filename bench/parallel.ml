(* Scaling bench for the multicore experiment runner.

   Two sections, both deterministic in content and honest about the
   machine they ran on:

   - pool scaling: one fixed sweep — eight fig5 flip points at reduced
     duration, exactly the embarrassingly parallel grid the evaluation
     is made of — at jobs in {1, 2, 4, 8} (plus --jobs if distinct).
     Rows must be structurally identical at every width (determinism
     contract).
   - single scenario: the partitioned leaf-spine exhibit
     (Experiments.Par_leafspine on Netsim.Partition + Runner.Epoch) at
     jobs 1 vs 2 — the same ONE simulation on one worker and on two,
     digests compared byte-for-byte.

   BENCH_parallel.json records the host's core count and the effective
   worker count per row, so a 1.0x speedup on a single-core box reads
   as "no cores to scale onto", not as a runner defect.  On such boxes
   every wall-clock guardrail is skipped with an explicit note —
   extra domains on one core genuinely cost GC-coordination time, so
   there is no honest speedup bound to enforce — and only the
   determinism checks (row and digest equality across widths) gate.

   --guardrail additionally enforces, on multi-core hosts whose core
   count matches the recorded baseline's, that the jobs=2 speedup has
   not regressed below the previous BENCH_parallel.json figure beyond
   the same tolerance. *)

let fixed_flips = [ 64; 96; 128; 192; 256; 384; 768; 1536 ]
let fixed_duration = Engine.Time.ms 2
let tolerance = 1.10
let scaling_widths = [ 1; 2; 4; 8 ]

let usage () =
  prerr_endline "usage: parallel.exe [--jobs N] [--guardrail]";
  exit 2

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let sweep ?(flips_us = fixed_flips) ~jobs () =
  Experiments.Exp_common.collect ~jobs (fun emit ->
      Experiments.Sweeps.fig5_sweep_jobs ~flips_us ~duration:fixed_duration
        ~emit ())

let scenario_config =
  { Experiments.Par_leafspine.default with
    Experiments.Par_leafspine.duration = fixed_duration }

let scenario ~jobs = Experiments.Par_leafspine.run ~jobs scenario_config

(* ------------------------- baseline parsing ------------------------ *)

(* Enough JSON scanning to recover (cores, jobs=2 speedup) from a
   previous BENCH_parallel.json: find the int after "cores" and, inside
   the chunk of the "scaling" array whose "jobs" is 2, the float after
   "speedup".  Any shape surprise (old schema, hand edits) degrades to
   "no baseline", never to a crash. *)
let scan_number s key =
  match Str.search_forward (Str.regexp ("\"" ^ key ^ "\": *\\([0-9.]+\\)")) s 0
  with
  | _ -> Some (float_of_string (Str.matched_group 1 s))
  | exception Not_found -> None
  | exception Failure _ -> None

let read_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
    let cores = scan_number s "cores" in
    let j2 =
      String.split_on_char '{' s
      |> List.find_opt (fun chunk ->
             match scan_number chunk "jobs" with
             | Some 2.0 -> true
             | _ -> false)
      |> Fun.flip Option.bind (fun chunk -> scan_number chunk "speedup")
    in
    match (cores, j2) with
    | Some c, Some sp -> Some (int_of_float c, sp)
    | _ -> None

(* ------------------------------ main ------------------------------- *)

let () =
  let argv = Sys.argv in
  let guardrail = Array.exists (( = ) "--guardrail") argv in
  let requested = ref None in
  Array.iteri
    (fun i a ->
      if a = "--jobs" then
        if i + 1 >= Array.length argv then begin
          prerr_endline "parallel.exe: --jobs needs a value";
          usage ()
        end
        else
          match int_of_string_opt argv.(i + 1) with
          | Some n when n >= 1 -> requested := Some n
          | Some n ->
            Printf.eprintf "parallel.exe: --jobs must be >= 1, got %d\n" n;
            usage ()
          | None ->
            Printf.eprintf "parallel.exe: --jobs expects an integer, got %S\n"
              argv.(i + 1);
            usage ())
    argv;
  let cores = Runner.Pool.default_jobs () in
  let requested = Option.value !requested ~default:cores in
  let widths =
    List.sort_uniq compare (requested :: scaling_widths)
  in
  let points = List.length fixed_flips in
  Printf.printf
    "== parallel runner scaling (fixed fig5 sweep, %d points; %d core(s), \
     --jobs %d) ==\n"
    points cores requested;
  (* One point of warmup settles allocator/code paths so the serial
     measurement is not taxed for going first. *)
  ignore (sweep ~flips_us:[ 96 ] ~jobs:1 ());
  let runs =
    List.map
      (fun jobs ->
        let rows, s = wall (fun () -> sweep ~jobs ()) in
        Printf.printf "%-24s %8.2f s\n"
          (Printf.sprintf "sweep --jobs %d" jobs)
          s;
        (jobs, rows, s))
      widths
  in
  let _, serial_rows, serial_s = List.hd runs in
  let speedup_of s = serial_s /. Float.max 1e-9 s in
  let identical =
    List.for_all (fun (_, rows, _) -> rows = serial_rows) runs
  in
  Printf.printf "%-24s %8s\n" "sweep rows identical"
    (if identical then "yes" else "NO");
  (* Single-scenario section: the partitioned leaf-spine world, one
     simulation on 1 vs 2 workers. *)
  ignore (scenario ~jobs:1);
  let sc1, sc1_s = wall (fun () -> scenario ~jobs:1) in
  let sc2, sc2_s = wall (fun () -> scenario ~jobs:2) in
  let sc_speedup = sc1_s /. Float.max 1e-9 sc2_s in
  let digests_identical =
    sc1.Experiments.Par_leafspine.digest = sc2.Experiments.Par_leafspine.digest
  in
  Printf.printf "%-24s %8.2f s\n" "scenario --jobs 1" sc1_s;
  Printf.printf "%-24s %8.2f s\n" "scenario --jobs 2" sc2_s;
  Printf.printf "%-24s %8.2fx\n" "scenario speedup" sc_speedup;
  Printf.printf "%-24s %8s\n" "scenario digests"
    (if digests_identical then "identical" else "DIFFER");
  let baseline = read_baseline "BENCH_parallel.json" in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if cores = 1 then
    note
      "single core: wall-clock guardrails skipped (extra domains on one \
       core cost GC coordination; only determinism is checked)";
  (match baseline with
  | None -> note "no readable jobs=2 baseline in previous BENCH_parallel.json"
  | Some (bcores, _) when bcores <> cores ->
    note
      "baseline recorded on %d core(s), this host has %d: speedup \
       regression check skipped"
      bcores cores
  | Some _ -> ());
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    {|{
  "sweep": {
    "points": %d,
    "duration_ms": 2
  },
  "cores": %d,
  "requested_jobs": %d,
  "scaling": [
%s
  ],
  "single_scenario": {
    "leaves": %d,
    "spines": %d,
    "hosts_per_leaf": %d,
    "duration_ms": 2,
    "jobs1_s": %.3f,
    "jobs2_s": %.3f,
    "speedup": %.2f,
    "digests_identical": %b
  },
  "results_identical": %b,
  "guardrail_tolerance": %.2f,
  "notes": [%s]
}
|}
    points cores requested
    (String.concat ",\n"
       (List.map
          (fun (jobs, _, s) ->
            Printf.sprintf
              "    { \"jobs\": %d, \"workers\": %d, \"wall_s\": %.3f, \
               \"speedup\": %.2f }"
              jobs (min jobs points) s (speedup_of s))
          runs))
    scenario_config.Experiments.Par_leafspine.leaves
    scenario_config.Experiments.Par_leafspine.spines
    scenario_config.Experiments.Par_leafspine.hosts_per_leaf sc1_s sc2_s
    sc_speedup digests_identical identical tolerance
    (String.concat ", "
       (List.rev_map (fun s -> Printf.sprintf "%S" s) !notes));
  close_out oc;
  Printf.printf "wrote BENCH_parallel.json\n";
  if not identical then begin
    prerr_endline
      "FAIL: parallel sweep rows differ from serial rows (determinism \
       contract broken)";
    exit 1
  end;
  if not digests_identical then begin
    prerr_endline
      "FAIL: partitioned scenario digest differs between jobs=1 and jobs=2 \
       (epoch determinism contract broken)";
    exit 1
  end;
  if guardrail && cores > 1 then begin
    let _, _, requested_s =
      List.find (fun (j, _, _) -> j = requested) runs
    in
    if requested_s > serial_s *. tolerance then begin
      Printf.eprintf
        "FAIL: --jobs %d wall time %.2fs exceeds serial %.2fs beyond the \
         %.0f%% tolerance\n"
        requested requested_s serial_s
        ((tolerance -. 1.0) *. 100.0);
      exit 1
    end;
    match baseline with
    | Some (bcores, bspeedup) when bcores = cores && cores > 1 ->
      let _, _, j2_s = List.find (fun (j, _, _) -> j = 2) runs in
      let j2 = speedup_of j2_s in
      if j2 < bspeedup /. tolerance then begin
        Printf.eprintf
          "FAIL: jobs=2 speedup %.2fx regressed below the recorded \
           baseline %.2fx beyond the %.0f%% tolerance\n"
          j2 bspeedup
          ((tolerance -. 1.0) *. 100.0);
        exit 1
      end
    | _ -> ()
  end
