(* Command-line harness: regenerate any table or figure of the paper.

   `mtp_sim <exhibit> [options]` prints the same rows/series the paper
   reports; `--series` dumps raw (time, value) rows for plotting.

   Every exhibit command runs one job grid (Exp_common) through
   [run_grid]: a single exhibit is a one-job grid, while the
   multi-point commands (extensions, sweeps, failover, `all`) submit
   one flat grid (points x replications x schemes) that `--jobs N`
   spreads over N worker domains.  `par-leafspine` instead
   parallelizes INSIDE one scenario: per-leaf partitions under the
   conservative epoch runner (Runner.Epoch).  Either way the
   determinism contract makes every byte of output identical for any
   N; parallelism only buys wall time. *)

open Cmdliner
open Experiments

(* Numeric flags parse through these converters, one per value class,
   so an out-of-range value is a usage error (exit 2) before any
   simulation is built, never an assertion or a hang mid-run. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= lo -> Ok n
    | Ok _ ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %s" lo s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_int)

(* Sizes, counts, intervals, reps, spines, hosts. *)
let pos_int = int_at_least 1

(* `*-ms` times, and --jobs (0 picks one per core). *)
let nonneg_int = int_at_least 0

(* Load fractions: (0, 1]. *)
let fraction =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when x > 0.0 && x <= 1.0 -> Ok x
    | Ok _ ->
      Error (`Msg (Printf.sprintf "expected a number in (0, 1], got %s" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_float)

(* The largest fabric the repo guards is the 4096-host point of
   BENCH_engine.json's scale sweep; bigger ones can exhaust memory
   while the topology is built, so they are usage errors too.  [n] is
   a float so that products of huge flag values cannot overflow past
   the check. *)
let max_hosts = 4096

let check_fabric cmd ~what n =
  if n > float_of_int max_hosts then begin
    Format.eprintf "mtp_sim %s: %s = %.0f, above the %d-host cap@." cmd what n
      max_hosts;
    Stdlib.exit 2
  end

let dump_series =
  let doc = "Dump every (time_us, value) series row, not just summaries." in
  Arg.(value & flag & info [ "series" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallelizable commands (extensions, sweeps, \
     failover, all, par-leafspine); 0 picks one per core.  Output is \
     byte-identical for any value.  Values above 1 refuse \
     $(b,--trace)/$(b,--metrics) (telemetry is main-domain only)."
  in
  Arg.(value & opt nonneg_int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let duration_ms default =
  let doc = "Simulated duration in milliseconds." in
  Arg.(value & opt nonneg_int default & info [ "duration-ms" ] ~doc)

let csv_dir =
  let doc = "Also write each series/table to CSV files in $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let trace_file =
  let doc =
    "Enable telemetry and write the structured event trace to $(docv) \
     (JSONL; a .csv extension selects CSV)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_file =
  let doc =
    "Enable telemetry and write the metrics-registry snapshots to $(docv) \
     (CSV; a .jsonl extension selects JSONL)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* The csv option is recorded as a side effect of argument evaluation
   (before any command body runs) so every print path can honour it
   without threading an extra parameter.  Telemetry likewise: the
   context must be enabled before any simulation object is built
   (gauges register at construction), and the export files are written
   once, at exit, after the command body finishes. *)
let csv_target = ref None

let format_of_ext path jsonl_default =
  if Filename.check_suffix path ".csv" then `Csv
  else if Filename.check_suffix path ".jsonl" || Filename.check_suffix path ".json"
  then `Jsonl
  else if jsonl_default then `Jsonl
  else `Csv

type opts = { dump : bool; jobs : int }

let output_opts =
  Term.(
    const (fun dump csv trace metrics jobs ->
        let jobs =
          if jobs = 0 then Domain.recommended_domain_count () else jobs
        in
        (* Telemetry's context is a main-domain singleton (one shared
           event ring, no locks); worker domains would race it, so the
           combination is refused outright rather than exporting a
           silently incomplete trace.  See DESIGN.md "Parallel
           runner". *)
        if jobs > 1 && (trace <> None || metrics <> None) then begin
          Format.eprintf
            "mtp_sim: --trace/--metrics require --jobs 1 (telemetry is \
             main-domain only; worker domains would race the shared event \
             ring)@.";
          Stdlib.exit 2
        end;
        csv_target := csv;
        (* Validate export paths up front: a typo'd directory should
           be a usage error now, not an uncaught Sys_error from the
           at_exit writer after minutes of simulation. *)
        let check_writable = function
          | None -> ()
          | Some path -> (
            match open_out path with
            | oc -> close_out oc
            | exception Sys_error msg ->
              Format.eprintf "mtp_sim: cannot write %s: %s@." path msg;
              Stdlib.exit 2)
        in
        check_writable trace;
        check_writable metrics;
        if trace <> None || metrics <> None then begin
          Telemetry.Ctx.enable ();
          at_exit (fun () ->
              (match trace with
              | Some path ->
                Telemetry.Export.write_trace
                  ~format:(format_of_ext path true) path;
                Format.printf "  wrote %s@." path
              | None -> ());
              match metrics with
              | Some path ->
                Telemetry.Export.write_metrics
                  ~format:(format_of_ext path false) path;
                Format.printf "  wrote %s@." path
              | None -> ())
        end;
        { dump; jobs })
    $ dump_series $ csv_dir $ trace_file $ metrics_file $ jobs_arg)

let print_result opts result =
  Exp_common.print ~dump_series:opts.dump Format.std_formatter result;
  match !csv_target with
  | Some dir ->
    List.iter
      (Format.printf "  wrote %s@.")
      (Exp_common.write_csv ~dir result)
  | None -> ()

(* The one way a command runs its exhibits: a job grid on --jobs
   workers, every result printed on the main domain in grid order. *)
let run_grid opts grid = Exp_common.run_jobs ~jobs:opts.jobs grid

(* A one-job exhibit whose result is printed when it commits. *)
let single opts mk = Exp_common.job mk ~commit:(print_result opts)

(* ------------------------------- fig2 ------------------------------ *)

let fig2_cmd =
  let run opts duration rwnd_kb =
    let config =
      { Fig2_proxy.default with
        Fig2_proxy.duration = Engine.Time.ms duration;
        rwnd_limit = rwnd_kb * 1000 }
    in
    run_grid opts [ single opts (fun () -> Fig2_proxy.result ~config ()) ]
  in
  let rwnd =
    Arg.(value & opt pos_int 256
         & info [ "rwnd-kb" ] ~doc:"Receive-window cap (KB) of the limited variant.")
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"TCP termination: proxy buffering vs HOL blocking")
    Term.(const run $ output_opts $ duration_ms 4 $ rwnd)

(* ------------------------------- fig3 ------------------------------ *)

let fig3_cmd =
  let run opts duration hosts chains =
    check_fabric "fig3" ~what:"2 x --hosts" (2.0 *. float_of_int hosts);
    let config =
      { Fig3_one_rpf.default with
        Fig3_one_rpf.duration = Engine.Time.ms duration;
        hosts;
        chains_per_host = chains }
    in
    run_grid opts [ single opts (fun () -> Fig3_one_rpf.result ~config ()) ]
  in
  let hosts =
    Arg.(value & opt pos_int 4
         & info [ "hosts" ]
             ~doc:"Sender/receiver pairs; 2 x N hosts, at most 4096.")
  in
  let chains =
    Arg.(value & opt pos_int 1
         & info [ "chains" ] ~doc:"Concurrent message chains per host.")
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"One request per flow breaks congestion control")
    Term.(const run $ output_opts $ duration_ms 3 $ hosts $ chains)

(* ------------------------------- fig5 ------------------------------ *)

let fig5_cmd =
  let run opts duration flip_us =
    let config =
      { Fig5_multipath.default with
        Fig5_multipath.duration = Engine.Time.ms duration;
        flip_interval = Engine.Time.us flip_us }
    in
    run_grid opts [ single opts (fun () -> Fig5_multipath.result ~config ()) ]
  in
  let flip =
    Arg.(value & opt pos_int 384
         & info [ "flip-us" ] ~doc:"Path alternation period (us).")
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Multipath congestion control under path alternation")
    Term.(const run $ output_opts $ duration_ms 8 $ flip)

(* ------------------------------- fig6 ------------------------------ *)

let fig6_cmd =
  let run opts seed duration max_mb load =
    let config =
      { Fig6_loadbalance.default with
        Fig6_loadbalance.seed;
        duration = Engine.Time.ms duration;
        max_message = max_mb * 1_000_000;
        load }
    in
    run_grid opts
      [ single opts (fun () -> Fig6_loadbalance.result ~config ()) ]
  in
  (* Of the exhibit commands only fig6 draws random numbers (message
     arrivals and sizes), so only it takes a seed. *)
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ]
             ~doc:"Seed of the random workload (message arrivals and sizes).")
  in
  let max_mb =
    Arg.(value & opt pos_int 16
         & info [ "max-mb" ]
             ~doc:"Cap (MB) on the 10KB-1GB skewed size mix; raise toward \
                   1000 for the paper's full range (slow).")
  in
  let load =
    Arg.(value & opt fraction 0.5 & info [ "load" ] ~doc:"Offered load fraction.")
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Load- and request-aware load balancing (tail FCT)")
    Term.(const run $ output_opts $ seed $ duration_ms 200 $ max_mb $ load)

(* ------------------------------- fig7 ------------------------------ *)

let fig7_cmd =
  let run opts duration sources =
    let config =
      { Fig7_isolation.default with
        Fig7_isolation.duration = Engine.Time.ms duration;
        tenant2_sources = sources }
    in
    run_grid opts [ single opts (fun () -> Fig7_isolation.result ~config ()) ]
  in
  let sources =
    Arg.(value & opt pos_int 8
         & info [ "tenant2-sources" ] ~doc:"Tenant 2's source count (paper: 8x).")
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Per-entity isolation on a shared queue")
    Term.(const run $ output_opts $ duration_ms 20 $ sources)

(* ------------------------------ table1 ----------------------------- *)

let table1_cmd =
  let run opts =
    run_grid opts [ single opts (fun () -> Table1_features.result ()) ]
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Transport feature matrix with live demos")
    Term.(const run $ output_opts)

let features_cmd =
  let run () = Format.printf "%a" Stats.Table.pp (Mtp.Features.table ()) in
  Cmd.v
    (Cmd.info "features" ~doc:"Print the feature matrix only (no demos)")
    Term.(const run $ const ())

(* ---------------------------- extensions --------------------------- *)

(* Eight independent exhibits, one job each; `all` splices the same
   grid between fig7 and messaging. *)
let extensions_grid opts =
  List.map (single opts)
    [ (fun () -> Ablation_pathlets.result ());
      (fun () -> Ablation_algorithms.result ());
      (fun () -> Ablation_trimming.result ());
      (fun () -> Ablation_exclusion.result ());
      (fun () -> Ablation_acks.result ());
      (fun () -> Header_overhead.result ());
      (fun () -> Coexistence.result ());
      (fun () -> Ext_leafspine.result ()) ]

let extensions_cmd =
  let run opts = run_grid opts (extensions_grid opts) in
  Cmd.v
    (Cmd.info "extensions"
       ~doc:
         "Ablations and section-4 discussion experiments: pathlet \
          granularity, multi-algorithm CC, NDP trimming, path exclusion, \
          header overhead, TCP coexistence")
    Term.(const run $ output_opts)

(* ----------------------------- messaging --------------------------- *)

let messaging_cmd =
  let run opts duration size parallel =
    let config =
      { Ext_messaging.default with
        Ext_messaging.duration = Engine.Time.ms duration;
        msg_size = size;
        parallel }
    in
    run_grid opts [ single opts (fun () -> Ext_messaging.result ~config ()) ]
  in
  let size =
    Arg.(value & opt pos_int 100_000
         & info [ "msg-bytes" ] ~doc:"Message size in bytes.")
  in
  let parallel =
    Arg.(value & opt pos_int 4
         & info [ "parallel" ] ~doc:"Concurrent closed-loop chains.")
  in
  Cmd.v
    (Cmd.info "messaging"
       ~doc:
         "Drive TCP, DCTCP, UDP, proxied TCP and MTP through the unified           transport interface on identical workloads")
    Term.(const run $ output_opts $ duration_ms 10 $ size $ parallel)

(* ------------------------------ incast ----------------------------- *)

let incast_cmd =
  let run opts duration k fanout resp_kb =
    if k mod 2 <> 0 then begin
      Format.eprintf "mtp_sim incast: --k must be even@.";
      Stdlib.exit 2
    end;
    check_fabric "incast" ~what:"k^3/4 hosts" (float_of_int k ** 3.0 /. 4.0);
    let nhosts = k * k * k / 4 in
    if fanout > nhosts - 1 then begin
      Format.eprintf
        "mtp_sim incast: --fanout must be in 1..%d for k=%d@." (nhosts - 1) k;
      Stdlib.exit 2
    end;
    let config =
      { Ext_incast.k;
        fanout;
        resp_bytes = resp_kb * 1000;
        duration = Engine.Time.ms duration }
    in
    run_grid opts [ single opts (fun () -> Ext_incast.result ~config ()) ]
  in
  let k =
    Arg.(value & opt (int_at_least 2) 8
         & info [ "k" ]
             ~doc:"Fat-tree arity (even); k^3/4 hosts, at most 4096.")
  in
  let fanout =
    Arg.(value & opt pos_int 48
         & info [ "fanout" ] ~doc:"Responders answering the aggregator.")
  in
  let resp_kb =
    Arg.(value & opt pos_int 50
         & info [ "resp-kb" ] ~doc:"Response size per responder (KB).")
  in
  Cmd.v
    (Cmd.info "incast"
       ~doc:
         "Incast/RPC fan-out on a k-ary fat-tree: every responder answers \
          at t=0 and TCP, DCTCP and MTP race to collect the fan-in \
          (tail FCT and collect time)")
    Term.(const run $ output_opts $ duration_ms 50 $ k $ fanout $ resp_kb)

(* ----------------------------- failover ---------------------------- *)

(* One job per scheme; the barrier prints the assembled result. *)
let failover_grid opts config =
  Ext_failover.jobs ~config
    ~emit:(fun o -> print_result opts (Ext_failover.assemble config o))
    ()

let failover_cmd =
  let run opts duration fail_ms detect_ms restore_ms =
    let scale ms = Engine.Time.ms ms in
    run_grid opts
      (failover_grid opts
         { Ext_failover.default with
           Ext_failover.duration = scale duration;
           t_fail = scale fail_ms;
           detect = scale detect_ms;
           t_restore = scale restore_ms })
  in
  let fail_ms =
    Arg.(value & opt nonneg_int 10
         & info [ "fail-ms" ] ~doc:"Path A failure time (ms).")
  in
  let detect_ms =
    Arg.(value & opt nonneg_int 5
         & info [ "detect-ms" ] ~doc:"Routing reconvergence delay (ms).")
  in
  let restore_ms =
    Arg.(value & opt nonneg_int 20
         & info [ "restore-ms" ] ~doc:"Path A restoration time (ms).")
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:
         "Mid-transfer link failure: TCP/DCTCP vs MTP pathlet failover \
          (recovery time and goodput dip)")
    Term.(const run $ output_opts $ duration_ms 30 $ fail_ms $ detect_ms
          $ restore_ms)

(* ------------------------------ sweeps ----------------------------- *)

(* Both sweeps flattened into one grid: every (point, replication)
   cell is its own job, so no worker idles behind a monolithic sweep.
   Only the fig6 sweep is seeded, so only it takes replications. *)
let sweeps_grid opts ?duration5 ?duration6 ?reps () =
  let print = print_result opts in
  Sweeps.fig5_sweep_jobs ?duration:duration5
    ~emit:(fun rows -> print (Sweeps.fig5_rows_result rows))
    ()
  @ Sweeps.fig6_sweep_jobs ?reps ?duration:duration6
      ~emit:(fun rows -> print (Sweeps.fig6_rows_result ?reps rows))
      ()

let sweeps_cmd =
  let run opts reps = run_grid opts (sweeps_grid opts ~reps ()) in
  let reps =
    Arg.(value & opt pos_int 1
         & info [ "reps" ]
             ~doc:
               "Replications per fig6 sweep point under seeds derived per \
                point (rows report per-point means; parallel jobs, see \
                --jobs).  The fig5 sweep draws no random numbers and \
                runs once.")
  in
  Cmd.v
    (Cmd.info "sweeps"
       ~doc:
         "Parameter sweeps: Fig 5 vs alternation frequency, Fig 6 vs \
          offered load")
    Term.(const run $ output_opts $ reps)

(* --------------------------- par-leafspine ------------------------- *)

let par_leafspine_cmd =
  let run opts duration transport leaves spines hosts msg_kb =
    check_fabric "par-leafspine" ~what:"--leaves x (--hosts + --spines)"
      (float_of_int leaves *. (float_of_int hosts +. float_of_int spines));
    let config =
      { Par_leafspine.leaves;
        spines;
        hosts_per_leaf = hosts;
        message_bytes = msg_kb * 1000;
        duration = Engine.Time.ms duration;
        transport }
    in
    run_grid opts
      [ single opts (fun () ->
            Par_leafspine.result ~jobs:opts.jobs ~config ()) ]
  in
  let transport =
    Arg.(value
         & opt (enum [ ("dctcp", Par_leafspine.Dctcp);
                       ("mtp", Par_leafspine.Mtp) ])
             Par_leafspine.Dctcp
         & info [ "transport" ] ~docv:"NAME"
             ~doc:"Transport on every host: $(b,dctcp) or $(b,mtp).")
  in
  let leaves =
    Arg.(value & opt (int_at_least 2) 4
         & info [ "leaves" ]
             ~doc:
               "Leaf switches (= partitions); >= 2, and leaves x (hosts + \
                spines) at most 4096.")
  in
  let spines =
    Arg.(value & opt pos_int 4 & info [ "spines" ] ~doc:"Spine switches.")
  in
  let hosts =
    Arg.(value & opt pos_int 8 & info [ "hosts" ] ~doc:"Hosts per leaf.")
  in
  let msg_kb =
    Arg.(value & opt pos_int 100
         & info [ "msg-kb" ] ~doc:"Message size (KB) of each chain.")
  in
  Cmd.v
    (Cmd.info "par-leafspine"
       ~doc:
         "One large leaf-spine scenario on the partitioned world: per-leaf \
          simulation domains exchange fabric traffic through \
          lookahead-delay conduits with deterministic epoch barriers, so a \
          single scenario uses all --jobs cores with byte-identical output")
    Term.(const run $ output_opts $ duration_ms 4 $ transport $ leaves
          $ spines $ hosts $ msg_kb)

(* -------------------------------- all ------------------------------ *)

let all_cmd =
  let run opts smoke =
    (* Every figure and table of the repo in one invocation, as ONE
       flat job grid on the runner: single-scenario exhibits are one
       job each, and the multi-point exhibits (failover's four
       schemes, each sweep's points) are flattened into per-cell jobs
       with assembly barriers — ~30 pool jobs instead of 18, so the
       pool stays saturated instead of idling behind the monolithic
       sweeps.  All printing happens afterwards on the main domain,
       in submission order: `--jobs N` divides the wall time by ~N
       with byte-identical output.  `--smoke` shortens the
       long-running exhibits (fig6, failover, both sweeps) so CI can
       exercise the whole pipeline in about a minute; publication
       runs omit it. *)
    let shorten short = if smoke then Some short else None in
    let single = single opts in
    run_grid opts
      ([ single (fun () -> Table1_features.result ());
         single (fun () -> Fig2_proxy.result ());
         single (fun () -> Fig3_one_rpf.result ());
         single (fun () -> Fig5_multipath.result ());
         single (fun () ->
             Fig6_loadbalance.result
               ?config:
                 (shorten
                    { Fig6_loadbalance.default with
                      Fig6_loadbalance.duration = Engine.Time.ms 20 })
               ());
         single (fun () -> Fig7_isolation.result ()) ]
      @ extensions_grid opts
      @ [ single (fun () -> Ext_messaging.result ()) ]
      @ failover_grid opts
          (if smoke then
             { Ext_failover.default with
               Ext_failover.t_fail = Engine.Time.ms 5;
               detect = Engine.Time.ms 3;
               t_restore = Engine.Time.ms 11;
               duration = Engine.Time.ms 16 }
           else Ext_failover.default)
      @ sweeps_grid opts
          ?duration5:(shorten (Engine.Time.ms 2))
          ?duration6:(shorten (Engine.Time.ms 16))
          ()
      @ [ single (fun () ->
              Ext_incast.result ?config:(shorten Ext_incast.smoke) ()) ])
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Shorten the long-running exhibits so the full pipeline \
             completes quickly (CI smoke); numbers are not \
             publication-scale.")
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Regenerate every figure and table (main exhibits, ablations, \
          extensions, sweeps) in one invocation; combine with --jobs N \
          for a parallel run with byte-identical output")
    Term.(const run $ output_opts $ smoke_arg)

(* ------------------------------- fuzz ------------------------------ *)

let fuzz_cmd =
  let run cases fseed corpus budget_s replay_path digests =
    match replay_path with
    | Some path ->
      (* Replay a corpus case (or every case in a directory). *)
      let files =
        match Sys.is_directory path with
        | true -> Check.Fuzz.corpus_files path
        | false -> [ path ]
        | exception Sys_error _ ->
          Format.eprintf "mtp_sim fuzz: no such file or directory: %s@." path;
          Stdlib.exit 2
      in
      if files = [] then begin
        Format.eprintf "mtp_sim fuzz: no .case files under %s@." path;
        Stdlib.exit 2
      end;
      if digests then
        (* The corpus golden's input: one "case mode md5" line per
           pinned outcome. *)
        List.iter
          (fun f ->
            match Check.Spec.load f with
            | Error msg ->
              Format.eprintf "mtp_sim fuzz: %s: unreadable spec: %s@." f msg;
              Stdlib.exit 2
            | Ok spec ->
              List.iter
                (fun (mode, md5) ->
                  Format.printf "%s %s %s@." (Filename.basename f) mode md5)
                (Check.Fuzz.pinned_digests spec))
          files
      else begin
        let failed = ref 0 in
        List.iter
          (fun f ->
            match Check.Fuzz.replay f with
            | Check.Fuzz.Pass -> Format.printf "replay %s: PASS@." f
            | Check.Fuzz.Fail msg ->
              incr failed;
              Format.printf "replay %s: FAIL@.%s@." f msg)
          files;
        Format.printf "replayed %d case(s), %d failure(s)@."
          (List.length files) !failed;
        if !failed > 0 then Stdlib.exit 1
      end
    | None ->
      (* simlint: allow D002 — wall-clock budget cap, never read in-sim *)
      let t0 = Unix.gettimeofday () in
      let should_stop () =
        (* simlint: allow D002 — wall-clock budget cap, never read in-sim *)
        Unix.gettimeofday () -. t0 > float_of_int budget_s
      in
      let log msg = Format.printf "%s@." msg in
      let { Check.Fuzz.cases_run; failures } =
        Check.Fuzz.campaign ~should_stop ~log ~cases ~seed:fseed ()
      in
      if cases_run < cases then
        Format.printf
          "fuzz: wall-clock budget (%ds) hit after %d/%d cases@." budget_s
          cases_run cases;
      (match failures with
      | [] ->
        Format.printf
          "fuzz: %d case(s), zero oracle/differential violations@." cases_run
      | fs ->
        (try Unix.mkdir corpus 0o755
         with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
        List.iteri
          (fun i (_orig, small, msg) ->
            let name = Printf.sprintf "fuzz-seed%d-%d.case" fseed i in
            let path = Check.Fuzz.save ~dir:corpus ~name small in
            Format.printf "failure %d: %s@.  shrunk repro written to %s@." i
              msg path)
          (List.rev fs);
        Format.printf "fuzz: %d case(s), %d failure(s)@." cases_run
          (List.length fs);
        Stdlib.exit 1)
  in
  let cases =
    Arg.(value & opt pos_int 200
         & info [ "cases" ] ~docv:"N" ~doc:"Number of random cases to run.")
  in
  let fseed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S"
             ~doc:"Campaign seed; case $(i,i) derives stream $(i,i).")
  in
  let corpus =
    Arg.(value & opt string "test/corpus"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Directory shrunk failing cases are written to.")
  in
  let budget =
    Arg.(value & opt pos_int 300
         & info [ "budget-s" ] ~docv:"SECONDS"
             ~doc:"Wall-clock cap; the campaign stops between cases once \
                   exceeded.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"PATH"
             ~doc:"Replay one .case file (or every .case in a directory) \
                   instead of generating new cases.")
  in
  let digests =
    Arg.(value & flag
         & info [ "digests" ]
             ~doc:"With $(b,--replay): print the MD5 of each case's \
                   single-sim outcome (and of its partitioned jobs=1 \
                   outcome, when partitionable) instead of running the \
                   differential pairings.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Seeded fuzzing: random bounded scenarios under invariant oracles \
          (packet conservation, event order, transport state) and \
          differential pairings (batched vs classic datapath, burst limit \
          1, inert fault plans, worker-domain runs, partitioned domain \
          runs on every topology); failures shrink to replayable corpus \
          files")
    Term.(const run $ cases $ fseed $ corpus $ budget $ replay $ digests)

let () =
  let info =
    Cmd.info "mtp_sim" ~version:"1.0"
      ~doc:
        "Reproduce the evaluation of 'TCP is Harmful to In-Network \
         Computing: Designing a Message Transport Protocol' (HotNets'21)"
  in
  let group =
    Cmd.group info
      [ fig2_cmd; fig3_cmd; fig5_cmd; fig6_cmd; fig7_cmd; table1_cmd;
        features_cmd; extensions_cmd; messaging_cmd; incast_cmd;
        failover_cmd; sweeps_cmd; par_leafspine_cmd; all_cmd; fuzz_cmd ]
  in
  (* Graceful degradation: unknown subcommands/flags and malformed
     option values print cmdliner's usage/error text and exit 2 (the
     conventional usage-error code) instead of 124, and internal
     errors stay distinguishable (125). *)
  match Cmd.eval_value group with
  | Ok (`Ok ()) -> ()
  | Ok (`Version | `Help) -> ()
  | Error (`Parse | `Term) -> Stdlib.exit 2
  | Error `Exn -> Stdlib.exit 125
