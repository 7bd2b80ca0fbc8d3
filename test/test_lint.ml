(* simlint fixture suite: every rule must fire at the exact
   file:line it is seeded at (and nowhere else), pragmas must
   suppress, a pragma that suppresses nothing must be reported, and
   the CLI exit codes must hold.  Runs
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

let run_driver ?(config = fixture_config) ?(root = ".") ?rule_enabled dirs =
  match
    Result.bind (load ~root ~dirs)
      (Lint.Driver.run ~config ?rule_enabled ~root ~dirs)
  with
  | Ok result -> result
  | Error e -> Alcotest.failf "driver error: %s" e

let triples =
  List.map (fun (f : Lint.Finding.t) -> (f.Lint.Finding.file, f.line, f.rule))

let run ?rule_enabled dirs = triples (fst (run_driver ?rule_enabled dirs))

let stale ?config ?root ?rule_enabled dirs =
  triples (snd (run_driver ?config ?root ?rule_enabled dirs))

let triple = Alcotest.(list (triple string int string))

let fx name = "lint_fixtures/fixture_" ^ name ^ ".ml"

let expected =
  [ (fx "d001", 4, "D001"); (fx "d001", 7, "D001"); (fx "d001", 10, "D001");
    (fx "d001", 14, "D001"); (fx "d001", 15, "D001"); (fx "d001", 17, "D001");
    (fx "d002", 2, "D002"); (fx "d002", 3, "D002");
    (fx "d002", 4, "D002"); (fx "d002", 5, "D002");
    (fx "d002", 6, "D002"); (fx "d002", 7, "D002"); (fx "d002", 9, "D002");
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
  Alcotest.(check int)
    "--allowlist is an unknown option" 2
    (main [ "--allowlist"; "simlint.allow"; "lint_fixtures" ]);
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

(* A loader with [Cmt_loader.load]'s contract: it knows every unit by
   its canonical root-relative path, keeps those under the requested
   dirs, and fails when none is.  A dir spelled [lint_fixtures/] or
   [./lint_fixtures] covers no unit unless [main] normalises it. *)
let canonical_load ~root ~dirs =
  Result.bind (load ~root ~dirs:[ "lint_fixtures" ]) (fun program ->
      let under l =
        List.filter (fun (f, _, _) -> Lint.Config.in_dirs f dirs) l
      in
      match under program.Lint.Typed.impls with
      | [] -> Error ("no units cover " ^ String.concat " " dirs)
      | impls -> Ok { program with impls; intfs = under program.intfs })

let test_dir_spellings () =
  let main args =
    Lint.Driver.main ~config:fixture_config ~load:canonical_load
      (Array.of_list ("simlint" :: args))
  in
  List.iter
    (fun (dir, code) ->
      Alcotest.(check int) (dir ^ " exit code") code (main [ dir ]))
    [ ("lint_fixtures/clean", 0); ("lint_fixtures/clean/", 0);
      ("./lint_fixtures/clean", 0); ("./lint_fixtures/clean/", 0);
      ("lint_fixtures", 1); ("lint_fixtures/", 1); ("./lint_fixtures", 1) ]

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

let test_p102_guarded_fires () =
  (* The same call under [if Telemetry.Ctx.on () then] fires too:
     guarded branches run on workers, under the job's own context. *)
  Alcotest.check triple "Ctx.on-guarded mark_run fires P102"
    [ ("lint_fixtures/typed/example.ml", 1, "P102") ]
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
  \  max a b\n\
   let aliased (t : (int, int) Hashtbl.t) k =\n\
  \  let module H = Hashtbl in H.mem t k\n\
   module L = List\n\
   let paired (x : int) l = L.assoc x l\n"

let test_h104_polymorphic_compare () =
  (* [min] at int, [=] at an option type, a generic [Hashtbl.find_opt]
     and [List.mem] go through the runtime's polymorphic compare or
     hash.  [Int.min], [=] at int or an abbreviation of it, [= None]
     (the compiler's constant-constructor case) and a functor table do
     not, and a pragma clears a setup-only site.  A module alias hides
     nothing.  Only hot modules are scanned. *)
  Alcotest.check triple "polymorphic compare and hash fire H104"
    [ ("lint_fixtures/typed/hot.ml", 1, "H104");
      ("lint_fixtures/typed/hot.ml", 2, "H104");
      ("lint_fixtures/typed/hot.ml", 3, "H104");
      ("lint_fixtures/typed/hot.ml", 4, "H104");
      ("lint_fixtures/typed/hot.ml", 16, "H104");
      ("lint_fixtures/typed/hot.ml", 18, "H104") ]
    (analyze [ unit_ ~name:"Hot" ~file:"lint_fixtures/typed/hot.ml" compares ]);
  Alcotest.check triple "cold modules are not scanned" []
    (analyze [ unit_ compares ])

let float_records =
  "type mixed = { mutable count : int; mutable rate : float }\n\
   type flat = { mutable lo : float; mutable hi : float }\n\
   type fixed = { id : int; weight : float }\n\
   type ns = float\n\
   type aliased = { mutable n : int; mutable at : ns }\n\
   module Inner = struct\n\
  \  type r = { tag : string; mutable x : float }\n\
   end\n\
   type audited = {\n\
  \  name : string;\n\
  \  (* simlint: allow H105 — written once per run *)\n\
  \  mutable total : float;\n\
   }\n"

let test_h105_boxed_float () =
  (* A mutable float field boxes a fresh float on every store unless
     every field of its record is a float, which OCaml stores flat.  An
     all-float record and an immutable float field in a mixed record
     are fine; an abbreviation of float and a nested module's record
     count, and a pragma clears a site.  Only units under [mli_dirs]
     are scanned. *)
  Alcotest.check triple "mutable floats of mixed records fire H105"
    [ ("lint_fixtures/typed/example.ml", 1, "H105");
      ("lint_fixtures/typed/example.ml", 5, "H105");
      ("lint_fixtures/typed/example.ml", 7, "H105") ]
    (analyze [ unit_ float_records ]);
  Alcotest.check triple "units outside mli_dirs are not scanned" []
    (analyze [ unit_ ~file:"elsewhere/example.ml" float_records ])

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

let test_u101_through_alias () =
  (* An alias is a name, not a use: what is reached through it counts,
     and the rest of the unit is still reported.  [include] still lets
     the whole unit escape. *)
  List.iter
    (fun (name, src, expect) ->
      Alcotest.check triple name expect (analyze [ exported (); user src ]))
    [ ( "module alias",
        "module E = Exported\nlet () = ignore (E.used 1)\n",
        [ ("lint_fixtures/typed/exported.mli", 2, "U101") ] );
      ( "let module alias",
        "let () = let module E = Exported in ignore (E.used 1)\n",
        [ ("lint_fixtures/typed/exported.mli", 2, "U101") ] );
      ( "alias of an alias",
        "module E = Exported\nmodule F = E\nlet () = ignore (F.unused 1)\n",
        [ ("lint_fixtures/typed/exported.mli", 1, "U101") ] );
      ("include escapes", "include Exported\n", []) ]

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

let test_u102_through_alias () =
  Alcotest.check triple "a pass through an alias counts, the alias does not"
    [ ("lint_fixtures/typed/knobs.mli", 4, "U102");
      ("lint_fixtures/typed/knobs.mli", 7, "U102") ]
    (analyze
       [ knobs;
         user
           "module K = Knobs\n\
            let a = K.f ~x:1 ~y:2 ()\n\
            let b = let module G = Knobs in G.g ~w:1 () + K.h ()\n" ])

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

(* Pool and Epoch are typed together, Pool first: Epoch's windows are
   rounds of Pool's team, so it names [Pool]. *)
let analyze_runner ~pool ~epoch =
  analyze ~config:Lint.Config.default
    [ unit_ ~name:"Runner.Pool" ~file:"lib/runner/pool.ml" pool;
      unit_ ~name:"Runner.Epoch" ~file:"lib/runner/epoch.ml" epoch ]

let has_p101 = List.exists (fun (_, _, r) -> r = "P101")

let test_pool_clean_as_committed () =
  Alcotest.check triple "committed Runner.Pool and Runner.Epoch have no \
                         typed findings" []
    (analyze_runner ~pool:(pool_src ()) ~epoch:(epoch_src ()))

let test_pool_mutation_caught () =
  (* Un-atomic the team's claim counter: [next] becomes a plain ref in
     the control block every spawned worker shares.  The pragma covers
     the block's creation line, not the counter's, so P101 must catch
     the escape. *)
  let mutated =
    pool_src ()
    |> replace_exactly ~what:"next : int Atomic.t" ~by:"next : int ref"
    |> replace_exactly ~what:"next = Atomic.make 0" ~by:"next = ref 0"
    |> replace_exactly ~what:"Atomic.fetch_and_add t.next 1"
         ~by:"(let i = !(t.next) in t.next := i + 1; i)"
    |> replace_exactly ~what:"Atomic.set t.next 0" ~by:"t.next := 0"
  in
  let got = analyze_runner ~pool:mutated ~epoch:(epoch_src ()) in
  if not (has_p101 got) then
    Alcotest.failf "planted un-atomic team counter escaped P101 (got: %s)"
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
  (* The team's control block, which Epoch's windows and Pool.map
     share, is the runner's one audited (pragma'd) exchange point;
     stripping the pragma must resurface the P101. *)
  let pool = pool_src () in
  let stripped =
    replace_exactly ~what:"simlint: allow P101" ~by:"simlint-disarmed" pool
  in
  if not (has_p101 (analyze_runner ~pool:stripped ~epoch:(epoch_src ()))) then
    Alcotest.fail "team control-block pragma suppresses nothing — audit is \
                   stale";
  let occurrences src =
    let what = "simlint: allow P101" in
    let wl = String.length what in
    let n = ref 0 in
    for i = 0 to String.length src - wl do
      if String.sub src i wl = what then incr n
    done;
    !n
  in
  Alcotest.(check (pair int int))
    "one P101 pragma in the runner, on the team" (1, 0)
    (occurrences pool, occurrences (epoch_src ()))

(* ------------------------------------------------------------------ *)
(* Stale pragmas: a pragma that suppresses no finding of a rule that
   ran, or that names no rule, is reported.  Each case types sources
   written to a scratch root, under lint_fixtures/ so the fixture
   config's rules apply; every source gets an empty interface, which
   keeps M001 quiet. *)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_root files k =
  let root = Filename.temp_dir "simlint" "" in
  let rec mkdirs d =
    if not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  List.iter
    (fun (path, src) ->
      let abs = Filename.concat root path in
      mkdirs (Filename.dirname abs);
      Out_channel.with_open_bin abs (fun oc -> output_string oc src))
    files;
  Fun.protect ~finally:(fun () -> remove root) (fun () -> k root)

let source name src = [ (name ^ ".ml", src); (name ^ ".mli", "") ]

let unused_pragma =
  source "lint_fixtures/unused"
    "let size l =\n\
    \  (* simlint: allow D001 — nothing here iterates a table *)\n\
    \  List.length l\n"
  @ source "lint_fixtures/clean/ok" "let x = 1\n"

let test_stale_pragmas () =
  Alcotest.check triple "consumed pragmas are not stale" []
    (stale [ "lint_fixtures" ]);
  with_root unused_pragma (fun root ->
      Alcotest.check triple "unused pragma of an enabled rule is stale"
        [ ("lint_fixtures/unused.ml", 2, "D001") ]
        (stale ~root [ "lint_fixtures" ]);
      Alcotest.check triple "a rule --only leaves out is not judged" []
        (stale ~root ~rule_enabled:(fun r -> r = "D002") [ "lint_fixtures" ]);
      Alcotest.check triple "a file outside the scanned dirs is not judged" []
        (stale ~root [ "lint_fixtures/clean" ]))

let test_stale_pragma_exit_code () =
  with_root unused_pragma (fun root ->
      Alcotest.(check int)
        "stale pragma alone exits 1" 1
        (main [ "--root"; root; "lint_fixtures" ]);
      Alcotest.(check int)
        "stale pragma outside the scanned dirs exits 0" 0
        (main [ "--root"; root; "lint_fixtures/clean" ]);
      Alcotest.(check int)
        "stale pragma of a disabled rule exits 0" 0
        (main [ "--root"; root; "--disable"; "D001"; "lint_fixtures" ]))

let test_unknown_pragma_rule () =
  with_root
    (source "lint_fixtures/typo"
       "(* simlint: allow D01 — a typo can suppress nothing *)\n\
        let x = 1\n")
    (fun root ->
      Alcotest.check triple "unknown rule id is reported"
        [ ("lint_fixtures/typo.ml", 1, "D01") ]
        (stale ~root [ "lint_fixtures" ]);
      Alcotest.check triple "whatever rules run"
        [ ("lint_fixtures/typo.ml", 1, "D01") ]
        (stale ~root ~rule_enabled:(fun r -> r = "D002") [ "lint_fixtures" ]))

let audited_cell =
  "(* simlint: allow P101 — audited exchange point *)\n\
   let counter = Hashtbl.create 16\n\
   let job () = Hashtbl.replace counter 1 1\n\
   let go () = ignore (Domain.spawn job)\n"

let test_p101_definition_site_consumed () =
  (* The pragma sits two lines above the access site, out of reach of
     the line match: only the definition-site lookup consumes it. *)
  let check src k =
    with_root (source "lint_fixtures/cell" src) (fun root ->
        k (run_driver ~config:typed_config ~root [ "lint_fixtures" ]))
  in
  check audited_cell (fun (findings, stale) ->
      Alcotest.check triple "audited cell hides its access site" []
        (triples findings);
      Alcotest.check triple "definition-site pragma is consumed" []
        (triples stale));
  check
    (replace_exactly ~what:"simlint: allow" ~by:"simlint-disarmed"
       audited_cell)
    (fun (findings, _) ->
      Alcotest.check triple "without it the access site fires"
        [ ("lint_fixtures/cell.ml", 3, "P101") ]
        (triples findings))

let test_moved_pragma () =
  (* Mutation: fixture_pragma's live pragma moved one line down, below
     the site it covered, suppresses nothing. *)
  let pragma =
    "  (* simlint: allow D001 — fixture demonstrates suppression *)\n"
  in
  let site = "  Hashtbl.iter (fun _ _ -> ()) tbl\n" in
  let moved =
    replace_exactly ~what:(pragma ^ site) ~by:(site ^ pragma)
      (read_file (fx "pragma"))
  in
  with_root (source "lint_fixtures/fixture_pragma" moved) (fun root ->
      let findings, stale = run_driver ~root [ "lint_fixtures" ] in
      Alcotest.check triple "the uncovered site fires"
        [ (fx "pragma", 3, "D001"); (fx "pragma", 6, "D001") ]
        (triples findings);
      Alcotest.check triple "the moved pragma is stale"
        [ (fx "pragma", 4, "D001") ]
        (triples stale))

let suite =
  [ Alcotest.test_case "exact diagnostics" `Quick test_exact_diagnostics;
    Alcotest.test_case "clean dir" `Quick test_clean_dir;
    Alcotest.test_case "rule filter" `Quick test_rule_filter;
    Alcotest.test_case "stale pragma detection" `Quick test_stale_pragmas;
    Alcotest.test_case "stale pragma exit code" `Quick
      test_stale_pragma_exit_code;
    Alcotest.test_case "unknown pragma rule reported" `Quick
      test_unknown_pragma_rule;
    Alcotest.test_case "P101 definition-site pragma consumed" `Quick
      test_p101_definition_site_consumed;
    Alcotest.test_case "pragma moved one line down" `Quick test_moved_pragma;
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
    Alcotest.test_case "P102 guarded branch fires" `Quick
      test_p102_guarded_fires;
    Alcotest.test_case "H102 two-hop helper" `Quick test_h102_two_hop_helper;
    Alcotest.test_case "H103 option box" `Quick test_h103_option_box;
    Alcotest.test_case "H104 polymorphic compare" `Quick
      test_h104_polymorphic_compare;
    Alcotest.test_case "H105 boxed mutable float" `Quick test_h105_boxed_float;
    Alcotest.test_case "U101 unreferenced export" `Quick test_u101_unreferenced;
    Alcotest.test_case "U101 test and example references" `Quick
      test_u101_test_and_example_refs;
    Alcotest.test_case "U101 pragma" `Quick test_u101_pragma;
    Alcotest.test_case "U101 through a module alias" `Quick
      test_u101_through_alias;
    Alcotest.test_case "U102 never-passed optional" `Quick
      test_u102_never_passed;
    Alcotest.test_case "U102 passed, passed through or escaped" `Quick
      test_u102_passed_through_escaped;
    Alcotest.test_case "U102 through a module alias" `Quick
      test_u102_through_alias;
    Alcotest.test_case "pool clean as committed" `Quick
      test_pool_clean_as_committed;
    Alcotest.test_case "pool mutation caught" `Quick
      test_pool_mutation_caught;
    Alcotest.test_case "eventqueue min caught" `Quick
      test_eventqueue_min_caught;
    Alcotest.test_case "epoch pragma load-bearing" `Quick
      test_epoch_clean_and_pragma_load_bearing;
    Alcotest.test_case "dir spellings" `Quick test_dir_spellings ]
