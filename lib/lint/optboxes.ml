(* H103 — option boxes at hot call sites.  Passing [~x:v] to a
   function whose [x] is optional makes the typer wrap [v] in [Some v]:
   a two-word block allocated on every call, which no source-level
   hazard (H101) shows.  The typer marks that wrapper by giving its
   constructor a ghost location, so it cannot be confused with a
   [Some] written by hand.  [?x:] passes the caller's option through
   unchanged and is fine, as is an omitted optional argument (the
   typer fills in the constant [None]).  A site that only runs at
   setup carries a pragma. *)

let typer_some (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (lid, cd, [ _ ]) ->
    cd.Types.cstr_name = "Some" && lid.Location.loc.Location.loc_ghost
  | _ -> false

let callee (f : Typedtree.expression) =
  match f.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Path.name p
  | _ -> "a function"

let check_unit file (str : Typedtree.structure) =
  let found = ref [] in
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_apply (f, args) ->
      List.iter
        (fun (lbl, a) ->
          match (lbl, a) with
          | Asttypes.Optional name, Some a when typer_some a ->
            found :=
              Finding.make ~file
                ~line:a.exp_loc.Location.loc_start.Lexing.pos_lnum
                ~rule:"H103"
                ~msg:
                  (Printf.sprintf
                     "~%s: fills an optional argument of %s, so every call \
                      boxes it in Some; make the parameter required, pass \
                      ?%s: through, or pragma a setup-only call site"
                     name (callee f) name)
              :: !found
          | _ -> ())
        args
    | _ -> ());
    super.Tast_iterator.expr it e
  in
  let it = { super with Tast_iterator.expr } in
  it.Tast_iterator.structure it str;
  !found

let check ~config units =
  List.concat_map
    (fun (file, _, str) ->
      if Config.is_hot config file then check_unit file str else [])
    units
