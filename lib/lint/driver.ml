(* File discovery, parsing, filtering and the CLI entry point shared
   by [bin/simlint] and the fixture tests. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

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
  List.fold_left
    (fun acc dir ->
      let abs = Filename.concat root dir in
      if Sys.file_exists abs then walk ~root dir acc
      else failwith (Printf.sprintf "simlint: no such directory %s" abs))
    [] dirs
  |> List.sort String.compare

let parse_impl ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

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
    ?(typed = false) ?(rule_enabled = fun _ -> true) ~root ~dirs () =
  match scan_files ~root ~dirs with
  | exception Failure msg -> Error msg
  | files ->
    let ast_findings = ref [] in
    let errors = ref [] in
    (* Pragmas per source file.  Filled during the AST pass and on
       demand for typed findings, whose source set comes from the
       build's cmts rather than the walk. *)
    let pragma_cache = Hashtbl.create 64 in
    let pragmas_for file =
      match Hashtbl.find_opt pragma_cache file with
      | Some p -> p
      | None ->
        let abs = Filename.concat root file in
        let p =
          if Sys.file_exists abs then Pragma.scan (read_file abs)
          else Pragma.scan ""
        in
        Hashtbl.replace pragma_cache file p;
        p
    in
    let unsuppressed (f : Finding.t) =
      not
        (Pragma.suppressed (pragmas_for f.Finding.file) ~line:f.Finding.line
           ~rule:f.Finding.rule)
    in
    List.iter
      (fun file ->
        if Filename.check_suffix file ".ml" then begin
          let src = read_file (Filename.concat root file) in
          match parse_impl ~path:file src with
          | exception exn ->
            errors :=
              Printf.sprintf "%s: parse error (%s)" file
                (Printexc.to_string exn)
              :: !errors
          | structure ->
            Hashtbl.replace pragma_cache file (Pragma.scan src);
            let fs =
              Rules.check_structure ~config ~file structure
              |> List.filter unsuppressed
            in
            ast_findings := List.rev_append fs !ast_findings
        end)
      files;
    let typed_findings =
      match !errors with
      | _ :: _ -> Ok []
      | [] ->
        if not typed then Ok []
        else
          let audited file line =
            Pragma.suppressed (pragmas_for file) ~line ~rule:"P101"
          in
          Result.map
            (fun program ->
              Typed.check ~config ~audited program |> List.filter unsuppressed)
            (Cmt_loader.load ~root ~dirs)
    in
    (match (!errors, typed_findings) with
    | e :: _, _ -> Error e
    | [], Error e -> Error e
    | [], Ok typed_findings ->
      let all =
        missing_mli ~config files @ !ast_findings @ typed_findings
        |> List.filter (fun (f : Finding.t) -> rule_enabled f.Finding.rule)
      in
      let kept, unused = Allowlist.apply allowlist all in
      (* An unused entry is only *stale* when this run could have
         matched it: its rule ran (enabled, and typed rules need
         [--typed]) and its file lies under the scanned dirs. *)
      let stale =
        List.filter
          (fun e ->
            let rule = Allowlist.entry_rule e in
            rule_enabled rule
            && (typed || not (Config.typed_rule rule))
            && Config.in_dirs (Allowlist.entry_file e) dirs)
          unused
      in
      Ok (List.sort Finding.compare kept, stale))

let list_rules () =
  List.iter
    (fun (r : Config.rule_doc) ->
      Printf.printf "%s%s  %s\n" r.id
        (if r.typed then " (typed)" else "        ")
        r.summary)
    Config.rules

let usage =
  "usage: simlint [--root DIR] [--typed] [--format human|json]\n\
  \               [--only RULES] [--disable RULES] [--allowlist FILE]\n\
  \               [--list-rules] [DIR ...]\n\
   Scans DIR ... (default: lib bin bench) under --root (default: .) and\n\
   reports policy violations as file:line: [RULE] message (--format json:\n\
   one {\"rule\",\"file\",\"line\",\"msg\"} object per line).  --typed \
   additionally\n\
   loads the .cmt files under ROOT/_build/default (run `dune build` first)\n\
   and runs the typed rules P101/P102/H102/H103/H104/U101/U102.  RULES are\n\
   comma-separated rule ids.  Exits 0 when clean, 1 on findings or stale\n\
   allowlist entries, 2 on usage or parse errors.  Suppress a single site\n\
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

let main ?config argv =
  let root = ref "." in
  let allowlist_file = ref None in
  let dirs = ref [] in
  let list_only = ref false in
  let typed = ref false in
  let json = ref false in
  let only = ref None in
  let disabled = ref [] in
  let bad = ref None in
  let rec parse = function
    | [] -> ()
    | "--list-rules" :: rest ->
      list_only := true;
      parse rest
    | "--typed" :: rest ->
      typed := true;
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
        | Some f -> (
          match Allowlist.load f with
          | Ok a -> Ok a
          | Error e -> Error e)
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
          run ?config ~allowlist ~typed:!typed ~rule_enabled ~root:!root ~dirs
            ()
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
