(* Command-line harness: regenerate any table or figure of the paper.

   `mtp_sim <exhibit> [options]` prints the same rows/series the paper
   reports; `--series` dumps raw (time, value) rows for plotting.  The
   exhibit commands and `all` are derived from the exhibit table
   (Experiments.Exhibits).  Each runs one job grid (Exp_common) that
   `--jobs N` spreads over N worker domains; `par-leafspine` instead
   parallelizes INSIDE one scenario (Runner.Epoch).  Either way every
   byte of output is identical for any N. *)

open Cmdliner
open Experiments

(* Every flag parses through the converter its kind selects, so an
   out-of-range value is a usage error (exit 2) before any simulation
   is built, never an assertion, an overflow or a hang mid-run.  An
   [Int] flag is given in its unit and scaled here, once. *)
let flag_conv : type v. v Exhibits.kind -> v Arg.conv = function
  | Exhibits.Int { lo; unit; hi } ->
    let s = Exhibits.scale unit in
    let parse str =
      match Arg.conv_parser Arg.int str with
      | Ok n when n < lo ->
        Error (`Msg (Printf.sprintf "expected an integer >= %d, got %s" lo str))
      | Ok n when n > hi / s ->
        Error
          (`Msg (Printf.sprintf "expected an integer <= %d, got %s" (hi / s) str))
      | Ok n -> Ok (n * s)
      | Error _ as e -> e
    in
    Arg.conv (parse, fun ppf n -> Format.pp_print_int ppf (n / s))
  | Exhibits.Fraction ->
    let parse str =
      match Arg.conv_parser Arg.float str with
      | Ok x when x > 0.0 && x <= 1.0 -> Ok x
      | Ok _ ->
        Error (`Msg (Printf.sprintf "expected a number in (0, 1], got %s" str))
      | Error _ as e -> e
    in
    Arg.conv (parse, Format.pp_print_float)
  | Exhibits.Any_int -> Arg.int
  | Exhibits.Enum names -> Arg.enum names

let int_at_least lo = flag_conv (Exhibits.Int { lo; unit = One; hi = max_int })

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
  Arg.(value & opt (int_at_least 0) 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

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
          let write (export : ?format:_ -> string -> unit) jsonl_default =
            Option.iter (fun path ->
                export ~format:(format_of_ext path jsonl_default) path;
                Format.printf "  wrote %s@." path)
          in
          at_exit (fun () ->
              write Telemetry.Export.write_trace true trace;
              write Telemetry.Export.write_metrics false metrics)
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

(* An exhibit's config: each flag, defaulting to its value in
   [default], sets its field. *)
let config_term default flags =
  List.fold_left
    (fun acc (Exhibits.Flag f) ->
      let docv = match f.kind with Exhibits.Enum _ -> "NAME" | _ -> "VAL" in
      let arg =
        Arg.(value & opt (flag_conv f.kind) (f.get default)
             & info [ f.name ] ~docv ~doc:f.doc)
      in
      Term.(const (fun c v -> f.set v c) $ acc $ arg))
    (Term.const default) flags

(* One command per exhibit of the table, derived from its entry. *)
let exhibit_cmd (Exhibits.Exhibit e) =
  let run opts config =
    (match e.check config with
    | Ok () -> ()
    | Error msg ->
      Format.eprintf "mtp_sim %s: %s@." e.name msg;
      Stdlib.exit 2);
    Exp_common.run_jobs ~jobs:opts.jobs
      (e.jobs ~jobs:opts.jobs ~emit:(print_result opts) config)
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(const run $ output_opts $ config_term e.default e.flags)

let features_cmd =
  let run () = Format.printf "%a" Stats.Table.pp (Mtp.Features.table ()) in
  Cmd.v
    (Cmd.info "features" ~doc:"Print the feature matrix only (no demos)")
    Term.(const run $ const ())

let all_cmd =
  let run opts smoke =
    (* Every exhibit of the table as ONE flat job grid (per-cell jobs
       with assembly barriers keep the pool saturated), printed on the
       main domain in submission order; `--smoke` runs each exhibit's
       smoke config. *)
    Exp_common.run_jobs ~jobs:opts.jobs
      (List.concat_map
         (fun (Exhibits.Exhibit e) ->
           e.jobs ~jobs:opts.jobs ~emit:(print_result opts)
             (if smoke then e.smoke else e.default))
         Exhibits.all)
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
    Arg.(value & opt (int_at_least 1) 200
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
    Arg.(value & opt (int_at_least 1) 300
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
      (List.map exhibit_cmd (Exhibits.all @ [ Exhibits.par_leafspine ])
      @ [ features_cmd; all_cmd; fuzz_cmd ])
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
