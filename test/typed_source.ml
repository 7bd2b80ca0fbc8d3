(* In-process typing for simlint's tests.  Fixtures are not part of
   the dune build (they are data, not code), so no .cmt exists for
   them; and the P101 mutation test needs to analyze a *modified* copy
   of lib/runner/pool.ml, which by construction can never have a
   checked-in cmt.  Both get the same answer: parse and type the
   source right here with the compiler simlint already links against,
   then hand the typedtree to the same [Lint.Typed.check] the cmt path
   uses — so tests exercise the production analysis, not a parallel
   one.  [load] types a fixture directory into the program
   [Lint.Driver.run] takes, in place of [Lint.Cmt_loader.load].

   Units are typed in order; each typed unit is injected into the
   environment as a module named by the last component of its unit
   name, so a later unit can reference an earlier one
   ([Helper.join ...]) and cross-unit reachability is testable from
   plain strings.  A unit with an interface source is seen through
   that interface, which is also what U101/U102 check.  Only stdlib
   and earlier units are visible — exactly the closed world a fixture
   should live in.  Every unit is both analyzed and part of the
   reference world. *)

type unit_src = {
  u_name : string;
  u_file : string;
  u_src : string;
  u_intf : string option;
}

let initialized = ref false

let init () =
  if not !initialized then begin
    initialized := true;
    Clflags.dont_write_files := true;
    Compmisc.init_path ()
  end

let describe_exn exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
  | _ -> Printexc.to_string exn

let intf_file u = u.u_file ^ "i"

let lexbuf file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  lexbuf

let type_units units =
  init ();
  let env0 = Compmisc.initial_env () in
  let rec go env impls intfs = function
    | [] ->
      let impls = List.rev impls in
      Ok
        { Lint.Typed.impls;
          intfs = List.rev intfs;
          world = impls;
          expand_env = Fun.id }
    | u :: rest -> (
      let comps = String.split_on_char '.' u.u_name in
      match
        let tstr, sg, _names, _shape, _env =
          Typemod.type_structure env
            (Parse.implementation (lexbuf u.u_file u.u_src))
        in
        let tsig =
          Option.map
            (fun src ->
              Typemod.transl_signature env
                (Parse.interface (lexbuf (intf_file u) src)))
            u.u_intf
        in
        (tstr, sg, tsig)
      with
      | exception exn ->
        Error (Printf.sprintf "%s: %s" u.u_file (describe_exn exn))
      | tstr, sg, tsig ->
        let alias =
          match List.rev comps with last :: _ -> last | [] -> u.u_name
        in
        let id = Ident.create_persistent alias in
        let sg =
          match tsig with Some t -> t.Typedtree.sig_type | None -> sg
        in
        let md =
          Types.
            { md_type = Mty_signature sg;
              md_attributes = [];
              md_loc = Location.none;
              md_uid = Uid.internal_not_actually_unique }
        in
        let env = Env.add_module_declaration ~check:false id Mp_present md env in
        let intfs =
          match tsig with
          | Some t -> (intf_file u, comps, t) :: intfs
          | None -> intfs
        in
        go env ((u.u_file, comps, tstr) :: impls) intfs rest)
  in
  go env0 [] [] units

(* Every .ml under [dirs], typed after the [stubs] (units standing in
   for libraries outside the closed world, such as [Unix]).  Stubs are
   analyzed like the sources, so they must stay free of findings. *)
let load ~stubs ~root ~dirs =
  Result.bind (Lint.Driver.scan_files ~root ~dirs) (fun files ->
      let source f =
        { u_name =
            String.capitalize_ascii
              (Filename.chop_suffix (Filename.basename f) ".ml");
          u_file = f;
          u_src =
            In_channel.with_open_bin (Filename.concat root f)
              In_channel.input_all;
          u_intf = None }
      in
      type_units
        (stubs
        @ List.map source
            (List.filter (fun f -> Filename.check_suffix f ".ml") files)))

(* Type, analyze, and apply each unit's own inline pragmas — the same
   suppression semantics the driver gives real sources, so analyzing
   the actual lib/runner/pool.ml text honors its audited-pattern
   pragmas while a mutated copy still trips P101. *)
let analyze ~config units =
  Result.map
    (fun program ->
      let source file =
        List.find_map
          (fun u ->
            if u.u_file = file then Some u.u_src
            else if intf_file u = file then u.u_intf
            else None)
          units
      in
      let pragmas file =
        Lint.Pragma.scan (Option.value ~default:"" (source file))
      in
      Lint.Typed.check ~config ~pragmas program)
    (type_units units)
