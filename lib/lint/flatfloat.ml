(* H105 — a mutable float field in a record OCaml does not store flat.
   A record whose fields are all floats is a flat float block
   ([Record_float]): a store writes the unboxed double in place.  In
   any other record a float field holds a pointer to a boxed float, so
   every store to a mutable one allocates a fresh two-word box.  The
   fix is to move the record's floats into an all-float sub-record
   (as [Cc.floats] does).  An immutable float field is boxed once, at
   construction, and is fine.

   The representation is read from the declaration's [Types] entry,
   as the compiler chose it, and a field's type is expanded in the
   declaration's environment ([expand_env]), so an abbreviation of
   float counts as float. *)

let check_unit ~expand_env file (str : Typedtree.structure) =
  let found = ref [] in
  let check_decl env (d : Typedtree.type_declaration) =
    match d.typ_type.Types.type_kind with
    | Types.Type_record (_, Types.Record_float) -> ()
    | Types.Type_record (labels, _) ->
      List.iter
        (fun (l : Types.label_declaration) ->
          if
            l.ld_mutable = Asttypes.Mutable
            && Typeopt.is_base_type env l.ld_type Predef.path_float
          then
            found :=
              Finding.make ~file
                ~line:l.ld_loc.Location.loc_start.Lexing.pos_lnum
                ~rule:"H105"
                ~msg:
                  (Printf.sprintf
                     "mutable float field %s of %s, a record OCaml does not \
                      store flat: every store boxes a fresh float; move \
                      the floats into an all-float record"
                     (Ident.name l.ld_id) (Ident.name d.typ_id))
              :: !found)
        labels
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let structure_item it (item : Typedtree.structure_item) =
    (match item.str_desc with
    | Typedtree.Tstr_type (_, decls) ->
      let env = expand_env item.str_env in
      List.iter (check_decl env) decls
    | _ -> ());
    super.Tast_iterator.structure_item it item
  in
  let it = { super with Tast_iterator.structure_item } in
  it.Tast_iterator.structure it str;
  !found

let check ~config ~expand_env units =
  List.concat_map
    (fun (file, _, str) ->
      (* The lib/ scope M001 and U101/U102 share. *)
      if Config.mli_required config file then check_unit ~expand_env file str
      else [])
    units
