(* U101/U102 — public surface nothing uses.

   An export is a top-level [val] of an interface under
   [Config.mli_dirs].  Its uses are read from every implementation in
   the build, tests and examples included, so a value that only a test
   observes still counts as used; the findings themselves are only
   reported for the interfaces handed in.

   - U101: no unit other than the export's own references it.  A value
     its own module still needs leaves the interface; one nothing
     needs goes.
   - U102: an optional parameter that no application anywhere passes,
     with [~x:] or with [?x] pass-through.  The typer fills an omitted
     optional argument with a ghost-located [None], which is not a
     pass.  A function referenced other than as the head of an
     application escapes as a value (into a record, a first-class
     module, a higher-order call), so all of its parameters count as
     used; so do the values of a unit that escapes whole
     ([include], [(module M)], a functor argument).

   A module alias ([module T = Netsim.Transport_intf], [let module R =
   Engine.Rng in]) is a name, not a use: a reference through it is a
   reference to the aliased unit's value, judged like any other, and
   the alias itself lets nothing escape. *)

type export = {
  e_file : string;
  e_line : int;
  e_unit : string list;
  e_name : string;
  e_opts : (string * int) list; (* optional label, line of [?x:] *)
  mutable e_outside : bool;
  mutable e_escaped : bool;
  mutable e_passed : string list;
}

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let rec optionals (ct : Typedtree.core_type) =
  match ct.ctyp_desc with
  | Typedtree.Ttyp_arrow (Asttypes.Optional l, _, rest) ->
    (l, line_of ct.ctyp_loc) :: optionals rest
  | Typedtree.Ttyp_arrow (_, _, rest) | Typedtree.Ttyp_poly (_, rest) ->
    optionals rest
  | _ -> []

let exports_of ~config intfs =
  List.concat_map
    (fun (file, unit_path, (sg : Typedtree.signature)) ->
      if not (Config.mli_required config file) then []
      else
        List.filter_map
          (fun (item : Typedtree.signature_item) ->
            match item.sig_desc with
            | Typedtree.Tsig_value vd ->
              Some
                { e_file = file;
                  e_line = line_of vd.val_loc;
                  e_unit = unit_path;
                  e_name = Ident.name vd.val_id;
                  e_opts = optionals vd.val_desc;
                  e_outside = false;
                  e_escaped = false;
                  e_passed = [] }
            | _ -> None)
          sg.sig_items)
    intfs

let key e = Callgraph.dotted (e.e_unit @ [ e.e_name ])

let typer_none (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct (lid, cd, []) ->
    cd.Types.cstr_name = "None" && lid.Location.loc.Location.loc_ghost
  | _ -> false

(* Walk one implementation unit, marking what it uses.  Same-unit
   references arrive as [Pident]s of the unit's top-level bindings;
   [aliases] maps each module alias to the path it names. *)
let scan_unit ~by_name ~by_unit unit_path (str : Typedtree.structure) =
  let tops = Hashtbl.create 64 and aliases = Hashtbl.create 8 in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            List.iter
              (fun id ->
                Hashtbl.replace tops (Ident.unique_name id)
                  (unit_path @ [ Ident.name id ]))
              (Typedtree.pat_bound_idents vb.vb_pat))
          vbs
      | _ -> ())
    str.str_items;
  let export_of (p : Path.t) =
    let comps =
      match p with
      | Path.Pident id -> Hashtbl.find_opt tops (Ident.unique_name id)
      | _ -> Some (Callgraph.resolve_in aliases p)
    in
    Option.bind comps (fun c -> Hashtbl.find_opt by_name (Callgraph.dotted c))
  in
  let use (e : export) = if e.e_unit <> unit_path then e.e_outside <- true in
  let escape e =
    use e;
    e.e_escaped <- true
  in
  let super = Tast_iterator.default_iterator in
  let expr it (x : Typedtree.expression) =
    match x.exp_desc with
    | Typedtree.Texp_apply
        ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) -> (
      match export_of p with
      | None -> super.Tast_iterator.expr it x
      | Some e ->
        use e;
        List.iter
          (fun (lbl, a) ->
            match (lbl, a) with
            | Asttypes.Optional l, Some a when not (typer_none a) ->
              e.e_passed <- l :: e.e_passed
            | _ -> ())
          args;
        List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args)
    | Typedtree.Texp_ident (p, _, _) -> Option.iter escape (export_of p)
    | _ -> super.Tast_iterator.expr it x
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Typedtree.Tmod_ident (p, _) ->
      List.iter escape
        (Option.value ~default:[]
           (Hashtbl.find_opt by_unit
              (Callgraph.dotted (Callgraph.resolve_in aliases p))))
    | _ -> ());
    super.Tast_iterator.module_expr it me
  in
  (* [open M] makes names visible; it uses nothing by itself. *)
  let open_declaration it (od : Typedtree.open_declaration) =
    match od.open_expr.mod_desc with
    | Typedtree.Tmod_ident _ -> ()
    | _ -> super.Tast_iterator.open_declaration it od
  in
  let it =
    Callgraph.with_aliases aliases
      { super with Tast_iterator.expr; module_expr; open_declaration }
  in
  it.Tast_iterator.structure it str

let check ~config ~intfs world =
  let exports = exports_of ~config intfs in
  let by_name = Hashtbl.create 512 and by_unit = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace by_name (key e) e;
      let u = Callgraph.dotted e.e_unit in
      Hashtbl.replace by_unit u
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_unit u)))
    exports;
  List.iter
    (fun (_, unit_path, str) -> scan_unit ~by_name ~by_unit unit_path str)
    world;
  List.concat_map
    (fun e ->
      let u101 =
        if e.e_outside then []
        else
          [ Finding.make ~file:e.e_file ~line:e.e_line ~rule:"U101"
              ~msg:
                (Printf.sprintf
                   "%s is exported but no other unit references it; delete \
                    it, or drop it from the interface if its own module \
                    uses it"
                   (key e)) ]
      in
      let u102 =
        if e.e_escaped then []
        else
          List.filter_map
            (fun (l, line) ->
              if List.mem l e.e_passed then None
              else
                Some
                  (Finding.make ~file:e.e_file ~line ~rule:"U102"
                     ~msg:
                       (Printf.sprintf
                          "?%s: of %s is passed by no application; drop the \
                           parameter and keep its default as a constant"
                          l (key e))))
            e.e_opts
      in
      u101 @ u102)
    exports
