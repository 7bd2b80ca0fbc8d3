(* The verification subsystem verified: spec serialization
   round-trips, divergence reporting, dispatch-error context, the
   conservation ledger catching a planted leak, and the acceptance
   test for the whole harness — a deliberately injected conservation
   bug must be caught by the oracles, shrunk to a smaller spec, and
   survive a save/load round-trip as a replayable corpus case.
   Finally, every checked-in corpus file must replay clean. *)

open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------- spec round-trip ------------------------- *)

let test_spec_roundtrip () =
  let rng = Engine.Rng.create 0xCA5E in
  for i = 1 to 300 do
    let spec = Check.Spec.generate (Engine.Rng.derive rng i) in
    let printed = Check.Spec.to_string spec in
    match Check.Spec.of_string printed with
    | Error e -> Alcotest.failf "case %d failed to parse: %s" i e
    | Ok reparsed ->
      checks
        (Printf.sprintf "case %d round-trips" i)
        printed
        (Check.Spec.to_string reparsed)
  done

let test_spec_rejects_garbage () =
  let bad s =
    match Check.Spec.of_string s with Ok _ -> false | Error _ -> true
  in
  checkb "empty rejected" true (bad "");
  checkb "wrong header rejected" true (bad "mtpcase v2\nseed 1\n");
  checkb "unknown key rejected" true
    (bad "mtpcase v1\nseed 1\ntopo pair\nbogus 3\n");
  checkb "malformed flow rejected" true
    (bad "mtpcase v1\nseed 1\ntopo pair\nflow 1\n")

(* ------------------------- diff reporting -------------------------- *)

let test_diff_first_divergence () =
  checkb "equal strings" true (Check.Diff.first_divergence "a\nb" "a\nb" = None);
  checkb "middle line" true
    (Check.Diff.first_divergence "a\nb\nc" "a\nx\nc" = Some 1);
  checkb "one side short" true
    (Check.Diff.first_divergence "a" "a\nb" = Some 1);
  match
    Check.Diff.compare_outputs ~expect_label:"left" ~got_label:"right"
      "a\nb\nc" "a\nx\nc"
  with
  | Ok () -> Alcotest.fail "divergence not reported"
  | Error msg ->
    checkb "names the line" true (contains ~sub:"line 2" msg);
    checkb "shows both sides" true
      (contains ~sub:"left" msg && contains ~sub:"right" msg);
    checkb "excerpts the diverging text" true (contains ~sub:"x" msg)

(* ---------------------- dispatch-error context --------------------- *)

let test_dispatch_error_context () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.schedule sim ~at:(Engine.Time.us 3) (fun () -> ()));
  ignore
    (Engine.Sim.schedule sim ~at:(Engine.Time.us 9) (fun () ->
         failwith "boom"));
  match Engine.Sim.run sim with
  | () -> Alcotest.fail "crashing callback did not raise"
  | exception Engine.Sim.Dispatch_error { time; seq; uid; inner } ->
    checki "event time attached" (Engine.Time.us 9) time;
    checkb "heap seq attached" true (seq >= 0);
    checki "dispatch ordinal attached" 2 uid;
    checkb "original exception preserved" true
      (match inner with Failure m -> m = "boom" | _ -> false);
    checkb "printer renders coordinates" true
      (contains ~sub:"time=9000"
         (Printexc.to_string
            (Engine.Sim.Dispatch_error { time; seq; uid; inner })))

(* ---------------------- ledger catches a leak ---------------------- *)

let test_ledger_catches_theft () =
  let sim = Engine.Sim.create () in
  let link =
    Link.create sim ~name:"audited" ~rate:(Engine.Time.gbps 1)
      ~delay:(Engine.Time.us 1) ()
  in
  Link.set_dst link (fun _ -> ());
  let ledger = Check.Ledger.create () in
  Check.Ledger.watch_link ledger link;
  for _ = 1 to 10 do
    Link.send link
      (Packet.make ~entity:0 ~prio:0 ~flow_hash:0 ~payload:Packet.Raw sim
         ~src:0 ~dst:1 ~size:1500)
  done;
  (* 1500 B at 1 Gbps is 12 us per packet: at t=20us most still queue. *)
  Engine.Sim.run ~until:(Engine.Time.us 20) sim;
  checkb "packets are queued" true (Link.queued_pkts link > 0);
  checkb "clean so far" true (Check.Ledger.failures ledger = []);
  (* Steal one straight out of the qdisc: vanishes without being
     counted as delivered or dropped — exactly the bug class the
     ledger exists to catch. *)
  checkb "theft got a packet" true
    ((Link.qdisc link).Qdisc.dequeue () <> None);
  Engine.Sim.run sim;
  match Check.Ledger.failures ledger with
  | [] -> Alcotest.fail "uncounted loss not detected"
  | msg :: _ ->
    checkb "blames the link" true (contains ~sub:"audited" msg);
    checkb "names the invariant" true (contains ~sub:"conservation" msg);
    checkb "quantifies the leak" true (contains ~sub:"leak of 1" msg)

(* ----------------------- scenario smoke test ----------------------- *)

let pair_spec =
  { Check.Spec.seed = 42;
    topo = Check.Spec.Pair;
    qdisc = Check.Spec.Q_fifo 64;
    transport = Check.Spec.T_mtp;
    rate_mbps = 1000;
    delay_us = 5;
    duration_us = 1500;
    flows = [ { Check.Spec.f_src = 0; f_dst = 0; f_size = 65536; f_start_us = 10 } ];
    faults = [] }

let test_scenario_does_real_work () =
  let sc = Check.Scenario.build pair_spec in
  Check.Scenario.run sc;
  let digest = Check.Scenario.digest sc in
  checkb "messages were delivered" true (contains ~sub:"rx t=" digest);
  checkb "completions recorded" true (contains ~sub:"done flow=" digest);
  checkb "oracles clean" true (Check.Scenario.oracle_failures sc = []);
  checkb "full case passes" true (Check.Fuzz.run_case pair_spec = Check.Fuzz.Pass)

(* -------------------- mutation test (acceptance) ------------------- *)

(* A conservation bug planted inside the datapath: a periodic that
   steals the first queued packet it finds, uncounted.  The harness
   must (1) fail the case with a conservation message, (2) shrink it
   to a no-larger spec that still fails, and (3) round-trip the repro
   through the on-disk corpus format so it replays. *)
let steal_one_packet sc =
  let sim = Check.Scenario.sim sc in
  let links = Check.Scenario.links sc in
  let stolen = ref false in
  ignore
    (Engine.Sim.periodic sim ~interval:(Engine.Time.us 5) (fun () ->
         Array.iter
           (fun l ->
             if (not !stolen) && Link.queued_pkts l > 0 then
               match (Link.qdisc l).Qdisc.dequeue () with
               | Some _ -> stolen := true
               | None -> ())
           links;
         not !stolen))

let incast_spec =
  { Check.Spec.seed = 7001;
    topo = Check.Spec.Star 6;
    qdisc = Check.Spec.Q_ecn { cap = 64; thresh = 16 };
    transport = Check.Spec.T_mtp;
    rate_mbps = 1000;
    delay_us = 5;
    duration_us = 2000;
    flows =
      List.map
        (fun (src, size, at) ->
          { Check.Spec.f_src = src; f_dst = 6; f_size = size; f_start_us = at })
        [ (0, 65536, 10); (1, 65536, 20); (2, 131072, 30); (3, 32768, 40);
          (4, 65536, 50); (5, 16384, 60) ];
    faults = [] }

let spec_weight (s : Check.Spec.t) =
  let topo_nodes =
    match s.Check.Spec.topo with
    | Check.Spec.Pair -> 2
    | Check.Spec.Two_path -> 2
    | Check.Spec.Star n -> n + 1
    | Check.Spec.Dumbbell n -> 2 * n
    | Check.Spec.Leaf_spine { leaves; spines; hosts } ->
      (leaves * hosts) + leaves + spines
    | Check.Spec.Fat_tree { k } -> (k * k * k / 4) + (5 * k * k / 4)
  in
  let bytes =
    List.fold_left (fun a f -> a + f.Check.Spec.f_size) 0 s.Check.Spec.flows
  in
  topo_nodes + List.length s.Check.Spec.flows
  + List.length s.Check.Spec.faults
  + (bytes / 1024) + (s.Check.Spec.duration_us / 100)

let test_mutation_caught_and_shrunk () =
  let inject = steal_one_packet in
  (* Caught: the baseline run's ledger flags the uncounted loss. *)
  let msg =
    match Check.Fuzz.run_case ~inject incast_spec with
    | Check.Fuzz.Pass -> Alcotest.fail "planted conservation bug not caught"
    | Check.Fuzz.Fail msg -> msg
  in
  checkb "failure names conservation" true (contains ~sub:"conservation" msg);
  (* Shrunk: a no-larger spec that still trips the same oracle. *)
  let small = Check.Fuzz.shrink ~inject incast_spec in
  checkb "shrunk spec still fails" true
    (match Check.Fuzz.run_case ~inject small with
    | Check.Fuzz.Fail _ -> true
    | Check.Fuzz.Pass -> false);
  checkb "shrunk spec is strictly smaller" true
    (spec_weight small < spec_weight incast_spec);
  (* Replayable: survives the corpus format round-trip. *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "mtp-mutation" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error ((EEXIST | EISDIR), _, _) -> ());
  let path = Check.Fuzz.save ~dir ~name:"mutation-repro.case" small in
  (match Check.Spec.load path with
  | Error e -> Alcotest.failf "saved repro unreadable: %s" e
  | Ok loaded ->
    checks "repro round-trips byte-for-byte"
      (Check.Spec.to_string small)
      (Check.Spec.to_string loaded);
    checkb "loaded repro still fails under the bug" true
      (match Check.Fuzz.run_case ~inject loaded with
      | Check.Fuzz.Fail _ -> true
      | Check.Fuzz.Pass -> false);
    checkb "loaded repro is clean without the bug" true
      (Check.Fuzz.run_case loaded = Check.Fuzz.Pass));
  Sys.remove path

(* --------------------------- corpus replay ------------------------- *)

let test_corpus_replays_clean () =
  (* cwd is test/ under [dune runtest], the repo root under
     [dune exec test/...]; accept either. *)
  let files =
    match Check.Fuzz.corpus_files "corpus" with
    | [] -> Check.Fuzz.corpus_files "test/corpus"
    | fs -> fs
  in
  checkb "corpus is populated" true (List.length files >= 4);
  List.iter
    (fun path ->
      match Check.Fuzz.replay path with
      | Check.Fuzz.Pass -> ()
      | Check.Fuzz.Fail msg -> Alcotest.failf "%s: %s" path msg)
    files

(* ------------------------ domain-mode scenarios -------------------- *)

let test_domains_jobs_invariant () =
  (* The partitioned scenario build must render byte-identical digests
     at jobs {1, 2, 4} on every spec of a generated batch — the
     determinism contract of the conservative epoch runner, on real
     fuzz workloads (mixed topologies, transports, faults,
     samplers). *)
  let rng = Engine.Rng.create 99 in
  let tested = ref 0 in
  let i = ref 0 in
  while !tested < 4 && !i < 100 do
    incr i;
    let spec = Check.Spec.generate (Engine.Rng.derive rng !i) in
    if Check.Scenario.partitionable spec then begin
      incr tested;
      let at jobs =
        match Check.Scenario.outcome ~partitioned:true ~jobs spec with
        | Ok digest -> digest
        | Error msg -> Alcotest.failf "spec %d jobs=%d: %s" !i jobs msg
      in
      let d1 = at 1 in
      Alcotest.(check string)
        (Printf.sprintf "spec %d: digest jobs 1 vs 2" !i)
        d1 (at 2);
      Alcotest.(check string)
        (Printf.sprintf "spec %d: digest jobs 1 vs 4" !i)
        d1 (at 4);
      checkb "digest is non-trivial" true (String.length d1 > 100)
    end
  done;
  checki "found partitionable specs to test" 4 !tested

let test_fat_tree_domains_jobs_invariant () =
  (* Pin the pod-partitioned fat-tree build directly (generation may
     or may not draw one in the batch above): k=4, four partitions,
     cross-pod flows through the conduit-realized agg<->core links. *)
  let spec =
    { Check.Spec.seed = 9041;
      topo = Check.Spec.Fat_tree { k = 4 };
      qdisc = Check.Spec.Q_ecn { cap = 64; thresh = 16 };
      transport = Check.Spec.T_dctcp;
      rate_mbps = 1000;
      delay_us = 3;
      duration_us = 1500;
      flows =
        List.map
          (fun (src, dst, size, at) ->
            { Check.Spec.f_src = src; f_dst = dst; f_size = size;
              f_start_us = at })
          [ (0, 9, 65536, 10); (5, 14, 65536, 20); (12, 3, 32768, 40);
            (15, 0, 16384, 70) ];
      faults = [] }
  in
  checkb "fat-tree is partitionable" true (Check.Scenario.partitionable spec);
  let at jobs =
    match Check.Scenario.outcome ~partitioned:true ~jobs spec with
    | Ok digest -> digest
    | Error msg -> Alcotest.failf "jobs=%d: %s" jobs msg
  in
  let d1 = at 1 in
  Alcotest.(check string) "digest jobs 1 vs 2" d1 (at 2);
  Alcotest.(check string) "digest jobs 1 vs 4" d1 (at 4);
  checkb "digest shows deliveries" true
    (String.length d1 > 100
    && String.split_on_char '\n' d1
       |> List.exists (fun l -> String.length l >= 2 && String.sub l 0 2 = "rx")
    )

(* --------------------------- campaign smoke ------------------------ *)

let test_campaign_smoke () =
  let c = Check.Fuzz.campaign ~cases:5 ~seed:424 () in
  checki "all cases ran" 5 c.Check.Fuzz.cases_run;
  checkb "no failures" true (c.Check.Fuzz.failures = [])

let suite =
  [ Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec rejects garbage" `Quick test_spec_rejects_garbage;
    Alcotest.test_case "diff first divergence" `Quick
      test_diff_first_divergence;
    Alcotest.test_case "dispatch error context" `Quick
      test_dispatch_error_context;
    Alcotest.test_case "ledger catches theft" `Quick
      test_ledger_catches_theft;
    Alcotest.test_case "scenario smoke" `Quick test_scenario_does_real_work;
    Alcotest.test_case "mutation caught+shrunk" `Quick
      test_mutation_caught_and_shrunk;
    Alcotest.test_case "corpus replays clean" `Quick
      test_corpus_replays_clean;
    Alcotest.test_case "domains jobs-invariant" `Slow
      test_domains_jobs_invariant;
    Alcotest.test_case "fat-tree domains jobs-invariant" `Quick
      test_fat_tree_domains_jobs_invariant;
    Alcotest.test_case "campaign smoke" `Quick test_campaign_smoke ]
