(* CLI boundary tests, generated from the exhibit table
   (Experiments.Exhibits): each flag is driven with every value its
   kind refuses (below its range, one past its cap, not a number), the
   others at their test values (Test_experiments.test_config), and must
   exit 2.  An exhibit with --duration-ms or with no flag (one short
   config) must then exit 0 at its test values, and once per flag at
   each lowest value its kind accepts (an Int's bound, a seed's 0 and
   -1, --jobs 0) exit 0, or 2 where the exhibit's check refuses it.
   `all` and `fuzz` are not exhibits, so their rows are written here.
   More cases: a removed knob, a fabric above the 4096-host cap, a
   chain count above the 35 535-port cap (per host, and fig3's hosts x
   chains) and a value that would overflow once scaled exit 2, and
   fig6's seed changes its output. *)

open Experiments

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

(* A flag's test value, the values it must refuse, and its lowest
   accepted values with the exit status each must give. *)
type flag = {
  name : string; good : string; refused : string list;
  lowest : (string * int) list }

type row = { cmd : string; flags : flag list; runs : bool }

(* Long flags take `--name=value` (so -1 is not read as a flag), short
   ones the glued `-kvalue`. *)
let arg name v =
  if String.length name > 1 then "--" ^ name ^ "=" ^ v else "-" ^ name ^ v

let refused : type v. v Exhibits.kind -> string list = function
  | Exhibits.Int { lo; unit; hi } ->
    let cap = if hi < max_int then [ (hi / Exhibits.scale unit) + 1 ] else [] in
    List.map string_of_int (List.sort_uniq compare ([ lo - 1; -1 ] @ cap))
    @ [ "x" ]
  | Exhibits.Fraction -> [ "0"; "-0.5"; "1.5"; "x" ]
  | Exhibits.Any_int | Exhibits.Enum _ -> [ "x" ]

let lowest : type v. v Exhibits.kind -> v list = function
  | Exhibits.Int { lo; unit; _ } -> [ lo * Exhibits.scale unit ]
  | Exhibits.Any_int -> [ 0; -1 ]
  | Exhibits.Fraction | Exhibits.Enum _ -> []

(* A value as the command line gives it, in the flag's unit. *)
let show : type v. v Exhibits.kind -> v -> string =
 fun kind v -> match kind with
  | Exhibits.Int { unit; _ } -> string_of_int (v / Exhibits.scale unit)
  | Exhibits.Any_int -> string_of_int v
  | Exhibits.Fraction -> Float.to_string v
  | Exhibits.Enum names -> fst (List.find (fun (_, x) -> x = v) names)

let at_least name good lo =
  { name; good; refused = refused (Exhibits.Int { lo; unit = One; hi = max_int });
    lowest = [ (string_of_int lo, 0) ] }

(* --jobs, which every exhibit command takes; 0 picks one per core. *)
let jobs = at_least "jobs" "1" 0

let exhibit_row (Exhibits.Exhibit e) =
  let config = Test_experiments.test_config e.flags e.smoke in
  let flag (Exhibits.Flag f) =
    let status v = match e.check (f.set v config) with Ok () -> 0 | Error _ -> 2 in
    { name = f.name; good = show f.kind (f.get config); refused = refused f.kind;
      lowest = List.map (fun v -> (show f.kind v, status v)) (lowest f.kind) }
  in
  { cmd = e.name; flags = jobs :: List.map flag e.flags;
    runs =
      e.flags = []
      || List.exists (fun (Exhibits.Flag f) -> f.name = "duration-ms") e.flags }

(* Alcotest names a case `cli <index> <name>`, and test listings know
   the rows by that id, so rows keep the order they had when this table
   was written by hand; a command added later sorts last. *)
let order =
  [ "fig2"; "fig3"; "fig5"; "fig6"; "fig7"; "table1"; "extensions"; "messaging";
    "incast"; "failover"; "sweeps"; "par-leafspine"; "all"; "fuzz" ]

let rank r = Option.value (List.find_index (( = ) r.cmd) order) ~default:99

let rows =
  List.stable_sort
    (fun a b -> compare (rank a) (rank b))
    (List.map exhibit_row (Exhibits.all @ [ Exhibits.par_leafspine ])
    @ [ { cmd = "all"; flags = [ jobs ]; runs = false };
        { cmd = "fuzz"; runs = true;
          flags =
            [ at_least "cases" "1" 1;
              { name = "seed"; good = "1"; refused = [ "x" ];
                lowest = [ ("0", 0); ("-1", 0) ] };
              at_least "budget-s" "5" 1 ] } ])

let expect code args =
  Alcotest.(check int) ("mtp_sim " ^ String.concat " " args) code (status args)

let check_row r () =
  let argv under v =
    r.cmd
    :: List.map (fun f -> arg f.name (if f.name = under then v else f.good))
         r.flags
  in
  List.iter
    (fun f -> List.iter (fun v -> expect 2 (argv f.name v)) f.refused)
    r.flags;
  if r.runs then begin
    expect 0 (argv "" "");
    List.iter
      (fun f -> List.iter (fun (v, code) -> expect code (argv f.name v)) f.lowest)
      r.flags
  end

let usage_errors cases () = List.iter (expect 2) cases

let removed_flags = [ [ "fig2"; "--seed"; "1" ]; [ "fig5"; "--reps"; "2" ] ]

(* Fabrics above the 4096-host cap, one chain past the 35 535 a
   host's source ports allow, and fig3's hosts x chains one past the
   same total. *)
let oversized_fabrics =
  [ [ "incast"; "-k"; "64" ]; [ "par-leafspine"; "--leaves"; "4096" ];
    [ "fig3"; "--hosts"; "1000000" ]; [ "fig3"; "--chains"; "35536" ];
    [ "messaging"; "--parallel"; "35536" ];
    [ "fig3"; "--hosts"; "16"; "--chains"; "2221" ] ]

(* Values that once overflowed after scaling, or built arrays of that
   size, and one past the u32 msg_len that caps every message size. *)
let overflowing =
  [ [ "fig6"; "--duration-ms"; "1"; "--max-mb"; "4295" ];
    [ "incast"; "--duration-ms"; "1"; "--resp-kb"; "9223372036854775" ];
    [ "par-leafspine"; "--duration-ms"; "1"; "--msg-kb"; "9223372036854775" ];
    [ "failover"; "--duration-ms"; "1"; "--fail-ms"; "9223372036854775" ];
    [ "fig6"; "--duration-ms"; "100000000000000" ];
    [ "messaging"; "--duration-ms"; "1"; "--msg-bytes"; "4611686018427387903" ];
    [ "fig6"; "--duration-ms"; "1"; "--max-mb"; "9223372036854" ];
    [ "fig2"; "--duration-ms"; "1"; "--rwnd-kb"; "9223372036854775" ] ]

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
    (fun r ->
      Alcotest.test_case (r.cmd ^ " numeric flags exit 0 or 2") `Quick
        (check_row r))
    rows
  @ [ Alcotest.test_case "removed flags exit 2" `Quick
        (usage_errors removed_flags);
      Alcotest.test_case "fig6 seed changes stdout" `Slow test_fig6_seed;
      Alcotest.test_case "oversized fabrics exit 2" `Quick
        (usage_errors oversized_fabrics);
      Alcotest.test_case "overflowing flags exit 2" `Quick
        (usage_errors overflowing) ]
