(* The comparison visitor: D003 in every scanned unit, H104 in the
   hot ones.

   D003 — [=], [<>], [==] or [!=] with a float literal operand: exact
   float equality is representation-fragile.

   H104 — polymorphic compare or hash in a hot module.  A comparison
   the compiler cannot specialise compiles to a call into the runtime's
   generic [compare_val] (through [caml_equal], [caml_lessequal], ...),
   a C call that walks both values tag by tag, where an int comparison
   is one instruction.  The same holds for functions
   that compare internally ([Stdlib.min]/[max], [List.mem]/[assoc])
   and for the generic [Hashtbl] operations, which hash and compare
   their keys polymorphically.

   Which comparisons the compiler specialises mirrors
   [Translprim.specialize_primitive]: the first parameter type of the
   comparison primitive's instance is int, char, an immediate type,
   float, string, bytes, nativeint, int32 or int64; or the comparison
   is a full application of [=] or [<>] with a constant constructor
   ([None], [[]], a constant variant) as one argument.  Types in a
   .cmt are checked in the environment the loader rebuilds from its
   summary ([expand_env]), so abbreviations such as [Time.t = int]
   expand as they did for the compiler. *)

let comparisons =
  [ "%equal"; "%notequal"; "%lessthan"; "%greaterthan"; "%lessequal";
    "%greaterequal"; "%compare" ]

let equalities = [ "%equal"; "%notequal"; "%eq"; "%noteq" ]

(* The path and name of the primitive [f] names, if it names one. *)
let primitive (f : Typedtree.expression) =
  match f.exp_desc with
  | Typedtree.Texp_ident (path, _, { Types.val_kind = Types.Val_prim p; _ }) ->
    Some (path, p.Primitive.prim_name)
  | _ -> None

let float_literal (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_constant (Asttypes.Const_float _) -> true
  | _ -> false

let constant_constructor (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_construct
      (_, { Types.cstr_tag = Types.Cstr_constant _; _ }, _)
  | Typedtree.Texp_variant (_, None) ->
    true
  | _ -> false

let specialised env ty =
  let base p = Typeopt.is_base_type env ty p in
  base Predef.path_int || base Predef.path_char
  || Typeopt.maybe_pointer_type env ty = Lambda.Immediate
  || base Predef.path_float || base Predef.path_string
  || base Predef.path_bytes || base Predef.path_nativeint
  || base Predef.path_int32 || base Predef.path_int64

(* [Stdlib.min]/[max] match on the resolved path, so a local [min]
   does not. *)
let generic_call (path : Path.t) =
  match path with
  | Path.Pdot (Path.Pident m, (("min" | "max") as f))
    when Ident.name m = "Stdlib" ->
    Some
      (Printf.sprintf "Stdlib.%s compares polymorphically; use Int.%s or \
                       Float.%s" f f f)
  | _ -> (
    match Callgraph.canonical path with
    | [ "Hashtbl"; ("find" | "find_opt" | "mem" | "add" | "replace" | "remove")
        as f ] ->
      Some
        (Printf.sprintf
           "Hashtbl.%s on a generic table hashes and compares its key \
            polymorphically; use a Hashtbl.Make table" f)
    | [ "List"; ("mem" | "assoc") as f ] ->
      Some
        (Printf.sprintf
           "List.%s compares polymorphically; search with a typed equality" f)
    | _ -> None)

let check_unit ~expand_env ~hot file (str : Typedtree.structure) =
  let found = ref [] in
  let report ~rule (loc : Location.t) msg =
    found :=
      Finding.make ~file ~line:loc.Location.loc_start.Lexing.pos_lnum ~rule
        ~msg
      :: !found
  in
  (* [constant]: a full application with a constant constructor
     argument, which the compiler turns into an int test under [=] and
     [<>]. *)
  let check_comparison (f : Typedtree.expression) (path, prim) ~constant =
    let env = expand_env f.exp_env in
    let ok =
      (constant && (prim = "%equal" || prim = "%notequal"))
      ||
      match Typeopt.is_function_type env f.exp_type with
      | Some (first, _) -> specialised env first
      | None -> false
    in
    if not ok then
      report ~rule:"H104" f.exp_loc
        (Printf.sprintf
           "%s at a type the compiler does not specialise (%s) calls the \
            runtime's polymorphic compare; compare ints, use a typed \
            equality or match, or pragma a setup-only site"
           (Path.last path)
           (Format.asprintf "%a" Printtyp.type_expr f.exp_type))
  in
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_apply (f, args) -> (
      match primitive f with
      | Some ((_, prim) as cmp) ->
        let operands = List.filter_map snd args in
        if List.mem prim equalities && List.exists float_literal operands then
          report ~rule:"D003" e.exp_loc
            "float equality against a literal; compare with an ordering or \
             pragma an intentional exact sentinel";
        if hot && List.mem prim comparisons then
          check_comparison f cmp
            ~constant:
              (match operands with
              | [ a; b ] -> constant_constructor a || constant_constructor b
              | _ -> false);
        List.iter (it.Tast_iterator.expr it) operands
      | None -> super.Tast_iterator.expr it e)
    | Typedtree.Texp_ident (path, _, _) when hot -> (
      match (primitive e, generic_call path) with
      | Some ((_, prim) as cmp), _ when List.mem prim comparisons ->
        check_comparison e cmp ~constant:false
      | _, Some msg ->
        report ~rule:"H104" e.exp_loc (msg ^ ", or pragma a setup-only site")
      | _ -> ())
    | _ -> super.Tast_iterator.expr it e
  in
  let it = { super with Tast_iterator.expr } in
  it.Tast_iterator.structure it str;
  !found

let check ~config ~expand_env units =
  List.concat_map
    (fun (file, _, str) ->
      check_unit ~expand_env ~hot:(Config.is_hot config file) file str)
    units
