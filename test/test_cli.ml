(* CLI boundary table: every numeric flag of every subcommand is driven
   with 0, -1 and a malformed value while the other flags keep values
   that make the run short.  Out-of-range values must be usage errors
   (exit 2) and accepted values must run to completion (exit 0): never a
   crash (125) and never a hang (124, the per-run timeout).

   `all`, `extensions` and `sweeps` take no --duration-ms, so an
   accepted value there would start a full run; their flags are driven
   only with values they reject.  `features` has no numeric flag.

   Three more cases keep the flag set honest: a knob that could not
   change an exhibit's output is not accepted (exit 2), a fabric above
   the 4096-host cap is a usage error (exit 2) rather than an
   out-of-memory crash, and the one exhibit seed (fig6's) does change
   the output. *)

let exe = Filename.concat ".." (Filename.concat "bin" "mtp_sim.exe")
let timeout_s = 10.0

(* Exit status of one run, with stdout/stderr discarded; 124 if it
   outlives [timeout_s] (it is killed), 128 + n if signal n ended it. *)
let status args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) null null null
  in
  Unix.close null;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      124
    | 0, _ ->
      Unix.sleepf 0.005;
      wait ()
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + abs n
  in
  wait ()

(* A flag, the short value it keeps while another flag is under test,
   and the values it is driven with. *)
type flag = { name : string; good : string; bad : string list }

let bad = [ "0"; "-1"; "x" ]
let flag ?(extra = []) name good = { name; good; bad = bad @ extra }

(* Flags whose 0 is accepted but would start a full-length run. *)
let rejected_only name good = { name; good; bad = [ "-1"; "x" ] }

(* Long flags take `--name=value` (so -1 is not read as a flag), short
   ones the glued `-kvalue`. *)
let arg name v =
  if String.length name > 2 then name ^ "=" ^ v else name ^ v

let exhibit extra = [ flag "--duration-ms" "1"; flag "--jobs" "1" ] @ extra

let table =
  [ ("fig2", exhibit [ flag "--rwnd-kb" "256" ]);
    ("fig3", exhibit [ flag "--hosts" "4"; flag "--chains" "1" ]);
    ("fig5", exhibit [ flag "--flip-us" "384" ]);
    ( "fig6",
      exhibit
        [ flag "--seed" "1"; flag "--max-mb" "16";
          flag "--load" "0.5" ~extra:[ "-0.5" ] ] );
    ("fig7", exhibit [ flag "--tenant2-sources" "8" ]);
    ("table1", [ flag "--jobs" "1" ]);
    ("extensions", [ rejected_only "--jobs" "1" ]);
    ( "messaging",
      exhibit
        [ flag "--msg-bytes" "100000" ~extra:[ "-5" ]; flag "--parallel" "4" ]
    );
    ( "incast",
      exhibit [ flag "-k" "8"; flag "--fanout" "48"; flag "--resp-kb" "50" ] );
    ( "failover",
      exhibit
        [ flag "--fail-ms" "10"; flag "--detect-ms" "5";
          flag "--restore-ms" "20" ] );
    ("sweeps", [ rejected_only "--jobs" "1"; flag "--reps" "1" ]);
    ( "par-leafspine",
      exhibit
        [ flag "--leaves" "4"; flag "--spines" "4"; flag "--hosts" "8";
          flag "--msg-kb" "100" ] );
    ("all", [ rejected_only "--jobs" "1" ]);
    ( "fuzz",
      [ flag "--cases" "1"; flag "--seed" "1"; flag "--budget-s" "5" ] ) ]

let check_command (cmd, flags) () =
  List.iter
    (fun f ->
      List.iter
        (fun v ->
          let args =
            cmd
            :: List.map
                 (fun g -> arg g.name (if g.name = f.name then v else g.good))
                 flags
          in
          let code = status args in
          if code <> 0 && code <> 2 then
            Alcotest.failf "mtp_sim %s exited %d (want 0 or 2)"
              (String.concat " " args) code)
        f.bad)
    flags

let usage_errors cases () =
  List.iter
    (fun args ->
      Alcotest.(check int)
        ("mtp_sim " ^ String.concat " " args ^ " is a usage error")
        2 (status args))
    cases

let removed_flags = [ [ "fig2"; "--seed"; "1" ]; [ "fig5"; "--reps"; "2" ] ]

let oversized_fabrics =
  [ [ "incast"; "-k"; "64" ]; [ "par-leafspine"; "--leaves"; "4096" ];
    [ "fig3"; "--hosts"; "1000000" ] ]

(* Both runs are started before either is read, so they overlap. *)
let test_fig6_seed () =
  let start seed =
    let args = [ "fig6"; "--duration-ms"; "20"; "--seed"; seed ] in
    (args, Unix.open_process_args_in exe (Array.of_list (exe :: args)))
  in
  let finish (args, ic) =
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> out
    | _ -> Alcotest.failf "mtp_sim %s failed" (String.concat " " args)
  in
  let a = start "7" and b = start "42" in
  Alcotest.(check bool)
    "fig6 --seed 7 and --seed 42 print different stdout" false
    (finish a = finish b)

let suite =
  List.map
    (fun ((cmd, _) as row) ->
      Alcotest.test_case (cmd ^ " numeric flags exit 0 or 2") `Quick
        (check_command row))
    table
  @ [ Alcotest.test_case "removed flags exit 2" `Quick
        (usage_errors removed_flags);
      Alcotest.test_case "fig6 seed changes stdout" `Slow test_fig6_seed;
      Alcotest.test_case "oversized fabrics exit 2" `Quick
        (usage_errors oversized_fabrics) ]
