(* File discovery, filtering and the CLI entry point shared by
   [bin/simlint] and the fixture tests.  The program to check arrives
   typed: from the build's .cmt files for the CLI ([Cmt_loader]), from
   sources typed in-process for the tests (test/typed_source.ml). *)

(* Recursive walk under [root]/[dir], depth-first, children visited in
   sorted order so reports and fixture expectations are stable across
   filesystems.  Skips _build-style and hidden directories. *)
let rec walk ~root rel acc =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Sys.readdir abs |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if String.length name = 0 || name.[0] = '_' || name.[0] = '.' then
             acc
           else walk ~root (rel ^ "/" ^ name) acc)
         acc
  else if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
  then rel :: acc
  else acc

let scan_files ~root ~dirs =
  match
    List.find_opt
      (fun dir -> not (Sys.file_exists (Filename.concat root dir)))
      dirs
  with
  | Some dir ->
    Error (Printf.sprintf "no such directory %s" (Filename.concat root dir))
  | None ->
    Ok
      (List.fold_left (fun acc dir -> walk ~root dir acc) [] dirs
      |> List.sort String.compare)

(* M001: a compilation unit under an mli-required dir must ship an
   interface.  Checked against the scanned file set, not the
   filesystem, so the rule composes with custom roots in tests. *)
let missing_mli ~config files =
  let have_mli =
    List.filter (fun f -> Filename.check_suffix f ".mli") files
    |> List.map (fun f -> Filename.chop_suffix f ".mli")
  in
  List.filter_map
    (fun f ->
      if
        Filename.check_suffix f ".ml"
        && Config.mli_required config f
        && not (List.mem (Filename.chop_suffix f ".ml") have_mli)
      then
        Some
          (Finding.make ~file:f ~line:1 ~rule:"M001"
             ~msg:
               "module has no .mli; every lib/ module must declare its \
                interface")
      else None)
    files

let run ?(config = Config.default) ?(allowlist = Allowlist.empty)
    ?(rule_enabled = fun _ -> true) ~root ~dirs program =
  Result.map
    (fun files ->
      (* Pragmas per source file, read on demand: the source set comes
         from the program, not the walk. *)
      let pragma_cache = Hashtbl.create 64 in
      let pragmas_for file =
        match Hashtbl.find_opt pragma_cache file with
        | Some p -> p
        | None ->
          let abs = Filename.concat root file in
          let p =
            Pragma.scan
              (if Sys.file_exists abs then
                 In_channel.with_open_bin abs In_channel.input_all
               else "")
          in
          Hashtbl.replace pragma_cache file p;
          p
      in
      let findings = Typed.check ~config ~pragmas:pragmas_for program in
      let all =
        missing_mli ~config files @ findings
        |> List.filter (fun (f : Finding.t) -> rule_enabled f.Finding.rule)
      in
      let kept, unused = Allowlist.apply allowlist all in
      (* An unused entry is only *stale* when this run could have
         matched it: its rule ran and its file lies under the scanned
         dirs. *)
      let stale =
        List.filter
          (fun e ->
            rule_enabled (Allowlist.entry_rule e)
            && Config.in_dirs (Allowlist.entry_file e) dirs)
          unused
      in
      (List.sort Finding.compare kept, stale))
    (scan_files ~root ~dirs)

let list_rules () =
  List.iter
    (fun (r : Config.rule_doc) -> Printf.printf "%s  %s\n" r.id r.summary)
    Config.rules

let usage =
  "usage: simlint [--root DIR] [--format human|json]\n\
  \               [--only RULES] [--disable RULES] [--allowlist FILE]\n\
  \               [--list-rules] [DIR ...]\n\
   Checks the sources under DIR ... (default: lib bin bench) in the .cmt\n\
   files of ROOT/_build/default (--root default: .; run\n\
   `dune build @all @check` first) and reports policy violations as\n\
   file:line: [RULE] message (--format json: one\n\
   {\"rule\",\"file\",\"line\",\"msg\"} object per line).  RULES are\n\
   comma-separated rule ids.  Exits 0 when clean, 1 on findings or stale\n\
   allowlist entries, 2 on usage or loading errors.  Suppress a single site\n\
   with (* simlint: allow RULE — reason *) on the offending or the\n\
   preceding line; suppress file-wide in the --allowlist file (default:\n\
   ROOT/simlint.allow when present, format: RULE path[:line])."

let split_rules what v k =
  let rules =
    String.split_on_char ',' v |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match List.find_opt (fun r -> not (Config.known_rule r)) rules with
  | Some r ->
    Printf.eprintf "simlint: %s: unknown rule %s\n" what r;
    Error 2
  | None -> if rules = [] then Error 2 else Ok (k rules)

let main ?config ~load argv =
  let root = ref "." in
  let allowlist_file = ref None in
  let dirs = ref [] in
  let list_only = ref false in
  let json = ref false in
  let only = ref None in
  let disabled = ref [] in
  let bad = ref None in
  let rec parse = function
    | [] -> ()
    | "--list-rules" :: rest ->
      list_only := true;
      parse rest
    | "--root" :: v :: rest ->
      root := v;
      parse rest
    | "--allowlist" :: v :: rest ->
      allowlist_file := Some v;
      parse rest
    | "--format" :: v :: rest -> (
      match v with
      | "human" ->
        json := false;
        parse rest
      | "json" ->
        json := true;
        parse rest
      | _ ->
        Printf.eprintf "simlint: --format must be human or json\n";
        bad := Some 2)
    | "--only" :: v :: rest -> (
      match split_rules "--only" v (fun rs -> only := Some rs) with
      | Ok () -> parse rest
      | Error code -> bad := Some code)
    | "--disable" :: v :: rest -> (
      match split_rules "--disable" v (fun rs -> disabled := rs @ !disabled) with
      | Ok () -> parse rest
      | Error code -> bad := Some code)
    | ("--help" | "-h") :: _ ->
      print_endline usage;
      bad := Some 0
    | a :: rest ->
      if String.length a > 0 && a.[0] = '-' then begin
        Printf.eprintf "simlint: unknown option %s\n%s\n" a usage;
        bad := Some 2
      end
      else begin
        dirs := a :: !dirs;
        parse rest
      end
  in
  parse (List.tl (Array.to_list argv));
  match !bad with
  | Some code -> code
  | None ->
    if !list_only then begin
      list_rules ();
      0
    end
    else begin
      let dirs =
        match List.rev !dirs with [] -> [ "lib"; "bin"; "bench" ] | ds -> ds
      in
      let rule_enabled r =
        (match !only with Some rs -> List.mem r rs | None -> true)
        && not (List.mem r !disabled)
      in
      let allowlist =
        let explicit = !allowlist_file in
        let default_path = Filename.concat !root "simlint.allow" in
        match explicit with
        | Some f -> Allowlist.load f
        | None ->
          if Sys.file_exists default_path then Allowlist.load default_path
          else Ok Allowlist.empty
      in
      match allowlist with
      | Error e ->
        Printf.eprintf "simlint: %s\n" e;
        2
      | Ok allowlist -> (
        match
          Result.bind (load ~root:!root ~dirs)
            (run ?config ~allowlist ~rule_enabled ~root:!root ~dirs)
        with
        | Error e ->
          Printf.eprintf "simlint: %s\n" e;
          2
        | Ok (findings, stale) ->
          List.iter
            (fun f ->
              print_endline
                (if !json then Finding.to_json f else Finding.to_string f))
            findings;
          List.iter
            (fun e ->
              Printf.eprintf
                "simlint: stale allowlist entry: %s (matched no finding; \
                 remove it from simlint.allow)\n"
                (Allowlist.entry_to_string e))
            stale;
          let n = List.length findings in
          if n > 0 then
            (* Summary on stderr so --format json stdout stays pure. *)
            (if !json then Printf.eprintf else Printf.printf)
              "simlint: %d finding(s)\n" n;
          if n = 0 && stale = [] then 0 else 1)
    end
