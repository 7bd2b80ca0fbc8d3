(* simlint fixture suite: every rule must fire at the exact
   file:line it is seeded at (and nowhere else), pragmas and the
   allowlist must suppress, and the CLI exit codes must hold.  Runs
   against test/lint_fixtures/, with a config that scopes the rules to
   that directory and promotes fixture_h101 into the hot set.

   The fixtures are typed in-process ([Typed_source.load]) and
   checked by the same [Lint.Driver.run] and [Lint.Driver.main] the
   CLI runs over the build's .cmt files.  Inline sources exercise the
   interprocedural rules (P101/P102/H102/H103/H104/U101/U102) through
   [Typed_source.analyze], including mutation tests that
   un-atomic the real Runner.Pool counter and put a polymorphic [min]
   back into the event queue. *)

let fixture_config =
  { Lint.Config.hot_modules = [ "fixture_h101" ];
    d001_dirs = [ "lint_fixtures" ];
    t201_dirs = [ "lint_fixtures" ];
    t201_exempt_dirs = [];
    rng_modules = [];
    mli_dirs = [ "lint_fixtures" ];
    spawn_spec = [];
    guard_path = [ "Ctx"; "on" ];
    offmain_forbidden = [];
    mutable_creators = [] }

let unit_ ?(name = "Example") ?(file = "lint_fixtures/typed/example.ml") ?intf
    src =
  { Typed_source.u_name = name; u_file = file; u_src = src; u_intf = intf }

(* Stand-ins for the libraries outside the fixtures' closed world. *)
let telemetry_stub =
  unit_ ~name:"Telemetry" ~file:"stubs/telemetry.ml"
    "module Ctx = struct\n\
    \  let on () = false\n\
    \  let mark_run (_ : string) = ()\n\
     end\n\
     module Events = struct let emit _ = () end\n\
     module Registry = struct\n\
    \  let set_gauge _ (_ : string) (_ : float) = ()\n\
     end\n"

let unix_stub =
  unit_ ~name:"Unix" ~file:"stubs/unix.ml" "let gettimeofday () = 0.0\n"

let load = Typed_source.load ~stubs:[ telemetry_stub; unix_stub ]

let run_driver ?allowlist ?rule_enabled dirs =
  match
    Result.bind (load ~root:"." ~dirs)
      (Lint.Driver.run ~config:fixture_config ?allowlist ?rule_enabled
         ~root:"." ~dirs)
  with
  | Ok result -> result
  | Error e -> Alcotest.failf "driver error: %s" e

let run ?allowlist ?rule_enabled dirs =
  List.map
    (fun (f : Lint.Finding.t) -> (f.Lint.Finding.file, f.line, f.rule))
    (fst (run_driver ?allowlist ?rule_enabled dirs))

let triple = Alcotest.(list (triple string int string))

let fx name = "lint_fixtures/fixture_" ^ name ^ ".ml"

let expected =
  [ (fx "d001", 4, "D001"); (fx "d001", 7, "D001"); (fx "d001", 10, "D001");
    (fx "d002", 2, "D002"); (fx "d002", 3, "D002");
    (fx "d002", 4, "D002"); (fx "d002", 5, "D002");
    (fx "d002", 6, "D002");
    (fx "d003", 2, "D003"); (fx "d003", 3, "D003");
    (fx "d003", 4, "D003");
    (fx "h101", 2, "H101"); (fx "h101", 3, "H101");
    (fx "h101", 4, "H101"); (fx "h101", 5, "H101");
    (fx "h101", 6, "H101");
    (fx "m001", 1, "M001");
    (fx "pragma", 6, "D001");
    (fx "pragma_eof", 3, "D001");
    (fx "pragma_multi", 8, "D001"); (fx "pragma_multi", 8, "D002");
    (fx "t201", 2, "T201"); (fx "t201", 3, "T201") ]

let test_exact_diagnostics () =
  Alcotest.check triple "rule x line over all fixtures" expected
    (run [ "lint_fixtures" ])

let test_clean_dir () =
  Alcotest.check triple "clean fixture yields nothing" []
    (run [ "lint_fixtures/clean" ])

let test_rule_filter () =
  Alcotest.check triple "rule_enabled narrows to one rule"
    (List.filter (fun (_, _, r) -> r = "D003") expected)
    (run ~rule_enabled:(fun r -> r = "D003") [ "lint_fixtures" ])

let test_allowlist_file_wide () =
  match Lint.Allowlist.parse_string "D002 lint_fixtures/fixture_d002.ml" with
  | Error e -> Alcotest.failf "allowlist parse: %s" e
  | Ok allowlist ->
    let got = run ~allowlist [ "lint_fixtures" ] in
    Alcotest.check triple "file-wide allow removes every fixture_d002 D002"
      (List.filter
         (fun (f, _, r) -> not (r = "D002" && f = fx "d002"))
         expected)
      got

let test_allowlist_line_scoped () =
  match
    Lint.Allowlist.parse_string
      "# comment line\nD001 lint_fixtures/fixture_d001.ml:4\n"
  with
  | Error e -> Alcotest.failf "allowlist parse: %s" e
  | Ok allowlist ->
    let got = run ~allowlist [ "lint_fixtures" ] in
    Alcotest.check triple "line-scoped allow removes exactly one"
      (List.filter (fun (f, l, _) -> not (f = fx "d001" && l = 4)) expected)
      got

let test_allowlist_rejects_garbage () =
  match Lint.Allowlist.parse_string "D001 too many tokens here" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ()

let stale_entries ?(dirs = [ "lint_fixtures" ]) allow_text =
  match Lint.Allowlist.parse_string allow_text with
  | Error e -> Alcotest.failf "allowlist parse: %s" e
  | Ok allowlist ->
    List.map Lint.Allowlist.entry_to_string (snd (run_driver ~allowlist dirs))

let test_stale_allowlist () =
  (* A matching entry is not stale... *)
  Alcotest.(check (list string))
    "used entry is not stale" []
    (stale_entries "D002 lint_fixtures/fixture_d002.ml");
  (* ...an in-scope entry that matches nothing is... *)
  Alcotest.(check (list string))
    "unused in-scope entry is stale"
    [ "D002 lint_fixtures/fixture_d001.ml" ]
    (stale_entries "D002 lint_fixtures/fixture_d001.ml");
  (* ...and an entry outside the scanned dirs cannot be judged. *)
  Alcotest.(check (list string))
    "entry outside scanned dirs is not judged" []
    (stale_entries ~dirs:[ "lint_fixtures/clean" ]
       "D002 lint_fixtures/fixture_d001.ml")

let main args =
  Lint.Driver.main ~config:fixture_config ~load
    (Array.of_list ("simlint" :: args))

let test_exit_codes () =
  Alcotest.(check int) "findings exit 1" 1 (main [ "lint_fixtures" ]);
  Alcotest.(check int) "clean exits 0" 0 (main [ "lint_fixtures/clean" ]);
  Alcotest.(check int) "--list-rules exits 0" 0 (main [ "--list-rules" ]);
  Alcotest.(check int) "unknown option exits 2" 2 (main [ "--bogus" ]);
  Alcotest.(check int)
    "--typed is an unknown option" 2
    (main [ "--typed"; "lint_fixtures" ]);
  Alcotest.(check int) "missing directory exits 2" 2 (main [ "no_such_dir" ]);
  Alcotest.(check int)
    "json findings still exit 1" 1
    (main [ "--format"; "json"; "lint_fixtures" ]);
  Alcotest.(check int)
    "bad --format exits 2" 2
    (main [ "--format"; "yaml"; "lint_fixtures" ]);
  Alcotest.(check int)
    "--only an un-fired rule exits 0" 0
    (main [ "--only"; "T201"; "lint_fixtures/clean" ]);
  Alcotest.(check int)
    "--only a fired rule exits 1" 1
    (main [ "--only"; "D001"; "lint_fixtures" ]);
  Alcotest.(check int)
    "--only unknown rule exits 2" 2
    (main [ "--only"; "D999"; "lint_fixtures" ]);
  Alcotest.(check int)
    "--disable unknown rule exits 2" 2
    (main [ "--disable"; "D999"; "lint_fixtures" ])

let with_temp_allowlist text k =
  let path = Filename.temp_file "simlint_allow" ".txt" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> k path)

let test_stale_allowlist_exit_code () =
  with_temp_allowlist "D002 lint_fixtures/clean/fixture_clean.ml\n"
    (fun path ->
      Alcotest.(check int)
        "stale entry alone exits 1" 1
        (main [ "--allowlist"; path; "lint_fixtures/clean" ]));
  with_temp_allowlist "D002 lint_fixtures/fixture_d001.ml\n" (fun path ->
      Alcotest.(check int)
        "out-of-scope entry does not trip the clean dir" 0
        (main [ "--allowlist"; path; "lint_fixtures/clean" ]))

let test_json_rendering () =
  Alcotest.(check string)
    "escapes quotes, backslashes and newlines"
    "{\"rule\":\"D001\",\"file\":\"a\\\"b\\\\c.ml\",\"line\":3,\"msg\":\"x\\ny\"}"
    (Lint.Finding.to_json
       (Lint.Finding.make ~file:"a\"b\\c.ml" ~line:3 ~rule:"D001"
          ~msg:"x\ny"))

let test_rule_docs_cover_findings () =
  (* Every rule id the fixtures exercise is documented in
     --list-rules' source of truth. *)
  List.iter
    (fun (_, _, rule) ->
      if not (Lint.Config.known_rule rule) then
        Alcotest.failf "rule %s fired but is undocumented" rule)
    expected

(* ------------------------------------------------------------------ *)
(* Interprocedural and typedtree rules over inline sources.            *)

let typed_config =
  { fixture_config with
    Lint.Config.hot_modules = [ "hot" ];
    spawn_spec =
      [ { Lint.Config.s_path = [ "Domain"; "spawn" ]; s_main_labels = [] } ];
    offmain_forbidden =
      [ [ "Telemetry"; "Registry" ]; [ "Telemetry"; "Ctx"; "mark_run" ] ];
    mutable_creators = [ [ "ref" ]; [ "Hashtbl"; "create" ] ] }

let analyze ?(config = typed_config) units =
  match Typed_source.analyze ~config units with
  | Ok findings ->
    List.map
      (fun (f : Lint.Finding.t) -> (f.Lint.Finding.file, f.line, f.rule))
      findings
  | Error e -> Alcotest.failf "typed analysis error: %s" e

let test_p101_escaped_ref () =
  (* A local ref captured by a Domain.spawn thunk: flagged at the
     cell's creation line. *)
  Alcotest.check triple "escaped ref fires P101 at the creation line"
    [ ("lint_fixtures/typed/example.ml", 2, "P101") ]
    (analyze
       [ unit_
           "let work xs =\n\
           \  let acc = ref 0 in\n\
           \  let job () = acc := !acc + List.length xs in\n\
           \  ignore (Domain.spawn job)\n" ])

let test_p101_atomic_clean () =
  (* The Atomic.t equivalent of the same shape is clean. *)
  Alcotest.check triple "Atomic.t equivalent is clean" []
    (analyze
       [ unit_
           "let work xs =\n\
           \  let acc = Atomic.make 0 in\n\
           \  let job () = Atomic.set acc (Atomic.get acc + List.length xs) in\n\
           \  ignore (Domain.spawn job)\n" ])

let test_p101_module_scope_cell () =
  (* A module-scope Hashtbl touched by worker-reachable code. *)
  Alcotest.check triple "module-scope cell access fires P101"
    [ ("lint_fixtures/typed/example.ml", 2, "P101") ]
    (analyze
       [ unit_
           "let counter = Hashtbl.create 16\n\
            let job () = Hashtbl.replace counter 1 1\n\
            let go () = ignore (Domain.spawn job)\n" ])

let test_p102_worker_reachable_telemetry () =
  Alcotest.check triple "unguarded worker-reachable mark_run fires P102"
    [ ("lint_fixtures/typed/example.ml", 1, "P102") ]
    (analyze
       [ telemetry_stub;
         unit_
           "let job () = Telemetry.Ctx.mark_run \"x\"\n\
            let go () = ignore (Domain.spawn job)\n" ])

let test_p102_guarded_clean () =
  (* The same call under [if Telemetry.Ctx.on () then] is statically
     dead on workers: no finding. *)
  Alcotest.check triple "Ctx.on-guarded mark_run is clean" []
    (analyze
       [ telemetry_stub;
         unit_
           "let job () = if Telemetry.Ctx.on () then Telemetry.Ctx.mark_run \
            \"x\"\n\
            let go () = ignore (Domain.spawn job)\n" ])

let test_h102_two_hop_helper () =
  (* hot -> Helper.step -> Helper.label: the allocation two calls away
     from the hot module is flagged at the helper's line. *)
  Alcotest.check triple "two-hop allocating helper fires H102"
    [ ("lint_fixtures/typed/helper.ml", 1, "H102") ]
    (analyze
       [ unit_ ~name:"Helper" ~file:"lint_fixtures/typed/helper.ml"
           "let label n = \"n=\" ^ string_of_int n\n\
            let step n = ignore (label n)\n";
         unit_ ~name:"Hot" ~file:"lint_fixtures/typed/hot.ml"
           "let rec drain n =\n\
           \  if n > 0 then begin ignore (Helper.step n); drain (n - 1) end\n"
       ])

let optional_calls =
  "let make ?(size = 0) () = size\n\
   let omitted () = make ()\n\
   let boxed n = make ~size:n ()\n\
   let through ?size () = make ?size ()\n\
   let setup n =\n\
  \  (* simlint: allow H103 — once, at setup *)\n\
  \  make ~size:n ()\n"

let test_h103_option_box () =
  (* [~size:] into an optional parameter boxes the value in Some on
     every call; [?size:] passes the caller's option through and an
     omitted argument is the constant None.  Only hot modules are
     scanned, and a pragma clears a setup-only site. *)
  Alcotest.check triple "~x: into an optional parameter fires H103"
    [ ("lint_fixtures/typed/hot.ml", 3, "H103") ]
    (analyze
       [ unit_ ~name:"Hot" ~file:"lint_fixtures/typed/hot.ml" optional_calls ]);
  Alcotest.check triple "cold modules are not scanned" []
    (analyze [ unit_ optional_calls ])

let compares =
  "let smaller (a : int) b = min a b\n\
   let same (a : int option) b = a = b\n\
   let lookup (t : (int, int) Hashtbl.t) k = Hashtbl.find_opt t k\n\
   let seen (x : int) l = List.mem x l\n\
   let fast (a : int) b = Int.min a b\n\
   let eq (a : int) b = a = b\n\
   type ns = int\n\
   let before (a : ns) b = a < b\n\
   let absent (a : int option) = a = None\n\
   module Itbl = Hashtbl.Make (Int)\n\
   let typed (t : int Itbl.t) k = Itbl.find_opt t k\n\
   let setup (a : int) b =\n\
  \  (* simlint: allow H104 — once, at setup *)\n\
  \  max a b\n"

let test_h104_polymorphic_compare () =
  (* [min] at int, [=] at an option type, a generic [Hashtbl.find_opt]
     and [List.mem] go through the runtime's polymorphic compare or
     hash.  [Int.min], [=] at int or an abbreviation of it, [= None]
     (the compiler's constant-constructor case) and a functor table do
     not, and a pragma clears a setup-only site.  Only hot modules are
     scanned. *)
  Alcotest.check triple "polymorphic compare and hash fire H104"
    [ ("lint_fixtures/typed/hot.ml", 1, "H104");
      ("lint_fixtures/typed/hot.ml", 2, "H104");
      ("lint_fixtures/typed/hot.ml", 3, "H104");
      ("lint_fixtures/typed/hot.ml", 4, "H104") ]
    (analyze [ unit_ ~name:"Hot" ~file:"lint_fixtures/typed/hot.ml" compares ]);
  Alcotest.check triple "cold modules are not scanned" []
    (analyze [ unit_ compares ])

(* U101/U102: exports and optional parameters nothing uses.  Only
   units with an interface under [mli_dirs] export anything; every
   unit's references count, wherever it lives. *)

let exported ?(intf = "val used : int -> int\nval unused : int -> int\n") () =
  unit_ ~name:"Exported" ~file:"lint_fixtures/typed/exported.ml" ~intf
    "let used x = x + 1\nlet unused x = x - 1\n"

let user ?(file = "lint_fixtures/typed/user.ml") src =
  unit_ ~name:"User" ~file src

let test_u101_unreferenced () =
  Alcotest.check triple "export no other unit names fires U101"
    [ ("lint_fixtures/typed/exported.mli", 2, "U101") ]
    (analyze [ exported (); user "let () = ignore (Exported.used 1)\n" ])

let test_u101_test_and_example_refs () =
  (* A reference from a test or an example executable is a use: the
     rule keeps observation points, it only reports on lib/. *)
  List.iter
    (fun file ->
      Alcotest.check triple (file ^ " reference counts") []
        (analyze
           [ exported ();
             user ~file
               "let () = ignore (Exported.used 1 + Exported.unused 2)\n" ]))
    [ "test/test_exported.ml"; "examples/exported_demo.ml" ]

let test_u101_pragma () =
  Alcotest.check triple "pragma above the val silences U101" []
    (analyze
       [ exported
           ~intf:
             "val used : int -> int\n\
              (* simlint: allow U101 — kept for a pending oracle *)\n\
              val unused : int -> int\n"
           ();
         user "let () = ignore (Exported.used 1)\n" ])

let knobs =
  unit_ ~name:"Knobs" ~file:"lint_fixtures/typed/knobs.ml"
    ~intf:
      "val f :\n\
      \  ?x:int ->\n\
      \  ?y:int ->\n\
      \  ?z:int ->\n\
      \  unit -> int\n\
       val g : ?w:int -> unit -> int\n\
       val h : ?v:int -> unit -> int\n"
    "let f ?(x = 0) ?(y = 0) ?(z = 0) () = x + y + z\n\
     let g ?(w = 0) () = w\n\
     let h ?(v = 0) () = v\n"

let test_u102_never_passed () =
  Alcotest.check triple "optional parameters no call passes fire U102"
    [ ("lint_fixtures/typed/knobs.mli", 4, "U102");
      ("lint_fixtures/typed/knobs.mli", 6, "U102");
      ("lint_fixtures/typed/knobs.mli", 7, "U102") ]
    (analyze
       [ knobs;
         user
           "let a = Knobs.f ~x:1 ~y:2 ()\n\
            let b = Knobs.g () + Knobs.h ()\n" ])

let test_u102_passed_through_escaped () =
  (* [~x:] passes x, [?y] passes the caller's option through, and [g]
     escaping as a value counts as passing all of its parameters; only
     [h]'s [?v] is never passed. *)
  Alcotest.check triple "~x:, ?y pass-through and escape count as passes"
    [ ("lint_fixtures/typed/knobs.mli", 7, "U102") ]
    (analyze
       [ knobs;
         user
           "let a = Knobs.f ~x:1 ()\n\
            let b ?y ?z () = Knobs.f ?y ?z ()\n\
            let c = [ Knobs.g ]\n\
            let d = Knobs.h ()\n" ])

(* ------------------------------------------------------------------ *)
(* Mutation tests over the real runner sources: the production files
   must analyze clean as committed, and planted races must be caught.
   The sources are read from the build tree (declared as test deps). *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let replace_exactly ~what ~by src =
  let wl = String.length what in
  let buf = Buffer.create (String.length src) in
  let hits = ref 0 in
  let i = ref 0 in
  while !i < String.length src do
    if
      !i + wl <= String.length src
      && String.sub src !i wl = what
    then begin
      incr hits;
      Buffer.add_string buf by;
      i := !i + wl
    end
    else begin
      Buffer.add_char buf src.[!i];
      incr i
    end
  done;
  if !hits = 0 then
    Alcotest.failf
      "mutation anchor %S not found — the source drifted, update the test"
      what;
  Buffer.contents buf

let pool_src () = read_file "../lib/runner/pool.ml"
let epoch_src () = read_file "../lib/runner/epoch.ml"

let analyze_runner src file =
  analyze ~config:Lint.Config.default
    [ unit_ ~name:("Runner." ^ Filename.chop_extension (Filename.basename file))
        ~file src ]

let test_pool_clean_as_committed () =
  Alcotest.check triple "committed Runner.Pool has no typed findings" []
    (analyze_runner (pool_src ()) "lib/runner/pool.ml")

let test_pool_mutation_caught () =
  (* Un-atomic the job counter: [next] becomes a plain ref shared by
     every spawned worker.  P101 must catch the escape. *)
  let mutated =
    pool_src ()
    |> replace_exactly ~what:"Atomic.make 0" ~by:"ref 0"
    |> replace_exactly ~what:"Atomic.fetch_and_add next 1"
         ~by:"(let i = !next in next := i + 1; i)"
  in
  let got = analyze_runner mutated "lib/runner/pool.ml" in
  if not (List.exists (fun (_, _, r) -> r = "P101") got) then
    Alcotest.failf "planted un-atomic pool counter escaped P101 (got: %s)"
      (String.concat "; "
         (List.map (fun (f, l, r) -> Printf.sprintf "%s:%d %s" f l r) got))

let eventqueue_src () = read_file "../lib/engine/eventqueue.ml"

let test_eventqueue_min_caught () =
  (* The heap's sift compares ints only; a [Stdlib.min] put back into
     [pop_min] is a polymorphic compare per sift level. *)
  let analyze_heap src =
    analyze ~config:Lint.Config.default
      [ unit_ ~name:"Engine.Eventqueue" ~file:"lib/engine/eventqueue.ml" src ]
  in
  let src = eventqueue_src () in
  Alcotest.check triple "committed Engine.Eventqueue has no typed findings" []
    (analyze_heap src);
  let mutated =
    replace_exactly ~what:"Int.min (base + 3)" ~by:"min (base + 3)" src
  in
  let got = analyze_heap mutated in
  if not (List.exists (fun (_, _, r) -> r = "H104") got) then
    Alcotest.fail "Stdlib.min in Eventqueue.pop_min escaped H104"

let test_epoch_clean_and_pragma_load_bearing () =
  (* As committed, Epoch's control block is an audited (pragma'd)
     exchange point; stripping the pragma must resurface the P101. *)
  let src = epoch_src () in
  Alcotest.check triple "committed Runner.Epoch has no typed findings" []
    (analyze_runner src "lib/runner/epoch.ml");
  let stripped =
    replace_exactly ~what:"simlint: allow P101" ~by:"simlint-disarmed" src
  in
  let got = analyze_runner stripped "lib/runner/epoch.ml" in
  if not (List.exists (fun (_, _, r) -> r = "P101") got) then
    Alcotest.fail "epoch ctl pragma suppresses nothing — audit is stale"

let suite =
  [ Alcotest.test_case "exact diagnostics" `Quick test_exact_diagnostics;
    Alcotest.test_case "clean dir" `Quick test_clean_dir;
    Alcotest.test_case "rule filter" `Quick test_rule_filter;
    Alcotest.test_case "allowlist file-wide" `Quick test_allowlist_file_wide;
    Alcotest.test_case "allowlist line-scoped" `Quick
      test_allowlist_line_scoped;
    Alcotest.test_case "allowlist rejects garbage" `Quick
      test_allowlist_rejects_garbage;
    Alcotest.test_case "stale allowlist detection" `Quick
      test_stale_allowlist;
    Alcotest.test_case "stale allowlist exit code" `Quick
      test_stale_allowlist_exit_code;
    Alcotest.test_case "exit codes" `Quick test_exit_codes;
    Alcotest.test_case "json rendering" `Quick test_json_rendering;
    Alcotest.test_case "rules documented" `Quick
      test_rule_docs_cover_findings;
    Alcotest.test_case "P101 escaped ref" `Quick test_p101_escaped_ref;
    Alcotest.test_case "P101 atomic clean" `Quick test_p101_atomic_clean;
    Alcotest.test_case "P101 module-scope cell" `Quick
      test_p101_module_scope_cell;
    Alcotest.test_case "P102 worker-reachable telemetry" `Quick
      test_p102_worker_reachable_telemetry;
    Alcotest.test_case "P102 guarded clean" `Quick test_p102_guarded_clean;
    Alcotest.test_case "H102 two-hop helper" `Quick test_h102_two_hop_helper;
    Alcotest.test_case "H103 option box" `Quick test_h103_option_box;
    Alcotest.test_case "H104 polymorphic compare" `Quick
      test_h104_polymorphic_compare;
    Alcotest.test_case "U101 unreferenced export" `Quick test_u101_unreferenced;
    Alcotest.test_case "U101 test and example references" `Quick
      test_u101_test_and_example_refs;
    Alcotest.test_case "U101 pragma" `Quick test_u101_pragma;
    Alcotest.test_case "U102 never-passed optional" `Quick
      test_u102_never_passed;
    Alcotest.test_case "U102 passed, passed through or escaped" `Quick
      test_u102_passed_through_escaped;
    Alcotest.test_case "pool clean as committed" `Quick
      test_pool_clean_as_committed;
    Alcotest.test_case "pool mutation caught" `Quick
      test_pool_mutation_caught;
    Alcotest.test_case "eventqueue min caught" `Quick
      test_eventqueue_min_caught;
    Alcotest.test_case "epoch pragma load-bearing" `Quick
      test_epoch_clean_and_pragma_load_bearing ]
