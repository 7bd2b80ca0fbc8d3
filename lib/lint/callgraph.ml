(* simlint's program representation, built from [.cmt] typedtrees
   ([Cmt_loader]) or from units the tests type in-process.

   One [node] per module-scope value binding, named by its canonical
   dotted path ([Runner.Pool.map], [Netsim.Link.push], ...).  A node
   carries every global value reference in its whole right-hand side —
   nested [let]s, lambdas and all — each tagged with

     - [g_guard]: the reference sits in the then-branch of an
       [if ... Ctx.on () ... then] test.  Such branches are dead on
       worker domains (the guard refuses off-main) and dead on
       disabled runs, so domain-safety reachability and hot-path
       allocation both skip them;
     - [g_raise]: the reference sits inside an argument of
       raise/failwith/invalid_arg — the cold error path, exempt from
       allocation accounting (H101, H102).

   Same-unit references are resolved through the unit's own top-level
   ident and submodule tables, and a reference through a module alias
   ([module H = Hashtbl], [let module U = Unix in]) as one to the path
   it names; cross-unit ones arrive from the typer already canonical
   ([Engine.Sim.run], [Stdlib.Atomic.make]); dune's [Lib__Module]
   manglings are split and a leading [Stdlib] dropped, so one naming
   scheme covers both producers.

   Every reference also lands, once, in its file's [sites] list —
   module-scope bindings, [let () = ...] and functor arguments alike —
   which the rules that judge one reference at a time (D001, D002,
   H101, T201) read.  Modules built by [Hashtbl.Make]/[MakeSeeded]
   are collected as [tables]: their [iter]/[fold] visit bindings in
   hash order just as [Hashtbl]'s do (D001).

   Besides nodes the walk collects what the domain-safety rules need:

   - module-scope mutable [cell]s: non-function top-level bindings
     whose right-hand side allocates non-atomic mutable state (ref,
     mutable record literal, Hashtbl/Buffer/Queue/Stack);
   - [spawn_arg]s: every global reference inside an argument of a
     worker-spawning call ([Config.spawn_spec]) — these seed worker
     reachability and are checked directly against cells (P101) and
     the off-main-forbidden set (P102);
   - [capture]s: a *local* non-atomic mutable cell that flows into a
     spawn argument (tracked through local [let] bindings, so
     [let next = ref 0 in ... Domain.spawn worker] is caught when
     [worker] mentions [next]).  This is the analysis the P101
     mutation test points at an un-atomic'd pool counter. *)

type vref = {
  g_path : string list; (* canonical components, leading Stdlib dropped *)
  g_line : int;
  g_guard : bool;
  g_raise : bool;
}

type node = {
  n_name : string; (* dotted canonical path *)
  n_file : string;
  n_line : int;
  n_fun : bool;
  n_refs : vref list;
}

type cell = {
  cl_name : string;
  cl_file : string;
  cl_line : int;
  cl_desc : string;
}

type spawn_arg = { sa_ref : vref; sa_spawn : string; sa_file : string }

type capture = {
  cap_file : string;
  cap_line : int; (* where the cell is created *)
  cap_desc : string;
  cap_spawn : string;
  cap_spawn_line : int;
}

type t = {
  cg_nodes : (string, node) Hashtbl.t;
  cg_cells : (string, cell) Hashtbl.t;
  cg_spawn_args : spawn_arg list;
  cg_captures : capture list;
  cg_sites : (string * vref list) list;
  cg_tables : string list;
}

let dotted comps = String.concat "." comps

(* "Netsim__Link" -> ["Netsim"; "Link"]; empty pieces from trailing
   "__" (dune's alias-module names) vanish. *)
let split_mangled comp =
  let n = String.length comp in
  let out = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n - 1 do
    if comp.[!i] = '_' && comp.[!i + 1] = '_' then begin
      if !i > !start then out := String.sub comp !start (!i - !start) :: !out;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  if !start < n then out := String.sub comp !start (n - !start) :: !out;
  List.rev !out

let normalize comps =
  match List.concat_map split_mangled comps with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | c -> c

(* Does [path] contain the components of [pat] consecutively?  The
   matching primitive for spawn specs, the telemetry guard, the
   off-main-forbidden set and mutable-cell creators: tolerant of
   library prefixes ([Runner.Pool.map] vs [Pool.map]) without
   resorting to substring accidents. *)
let contains_seq pat path =
  let lp = List.length pat and ln = List.length path in
  if lp = 0 || lp > ln then false
  else begin
    let arr = Array.of_list path in
    let parr = Array.of_list pat in
    let rec at i j = j >= lp || (arr.(i + j) = parr.(j) && at i (j + 1)) in
    let rec go i = i + lp <= ln && (at i 0 || go (i + 1)) in
    go 0
  end

let rec flatten_path (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (q, s) -> flatten_path q @ [ s ]
  | Path.Papply (a, _) -> flatten_path a
  | Path.Pextra_ty (q, _) -> flatten_path q

let canonical p = normalize (flatten_path p)

let raising = [ [ "raise" ]; [ "raise_notrace" ]; [ "failwith" ]; [ "invalid_arg" ] ]

(* Per-subtree accumulator.  The walker keeps a stack of these: the
   bottom one belongs to the module-scope binding being walked, and a
   fresh one is pushed for every local [let] right-hand side and every
   spawn-call argument, so each records exactly its own subtree while
   everything still reaches the node's own list. *)
type collector = {
  mutable k_cells : (int * string) list; (* creation line, description *)
  mutable k_deps : string list;          (* local ident unique names *)
  mutable k_globs : vref list;
}

let fresh_collector () = { k_cells = []; k_deps = []; k_globs = [] }

type pending_spawn = {
  ps_spawn : string;
  ps_line : int;
  ps_col : collector;
}

type wctx = {
  w_config : Config.t;
  w_file : string;
  mutable w_stack : collector list;
  w_tops : (string, string list) Hashtbl.t;   (* ident unique name -> canonical *)
  w_mods : (string, string list) Hashtbl.t;   (* same, for submodules *)
  w_locals : (string, collector) Hashtbl.t;   (* ident unique name -> summary *)
  mutable w_pending : pending_spawn list;
  mutable w_nodes : node list;
  mutable w_cells : cell list;
  mutable w_sites : vref list;
  mutable w_tables : string list;
  mutable w_guard : int;
  mutable w_raise : int;
}

let record_glob ctx ~line comps =
  let r =
    { g_path = comps;
      g_line = line;
      g_guard = ctx.w_guard > 0;
      g_raise = ctx.w_raise > 0 }
  in
  ctx.w_sites <- r :: ctx.w_sites;
  List.iter (fun c -> c.k_globs <- r :: c.k_globs) ctx.w_stack

let record_dep ctx key =
  List.iter (fun c -> c.k_deps <- key :: c.k_deps) ctx.w_stack

let record_cell ctx ~line desc =
  List.iter (fun c -> c.k_cells <- (line, desc) :: c.k_cells) ctx.w_stack

let rec head (p : Path.t) =
  match p with
  | Path.Pident id -> id
  | Path.Pdot (q, _) | Path.Papply (q, _) | Path.Pextra_ty (q, _) -> head q

let resolve_in mods (p : Path.t) =
  match Hashtbl.find_opt mods (Ident.unique_name (head p)) with
  | Some m -> m @ List.tl (flatten_path p)
  | None -> canonical p

let rec alias_target (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_constraint (me', _, _, _) -> alias_target me'
  | _ -> None

(* Bind each [module X = P] and [let module X = P in] the walk meets
   in [mods] to [P]'s components, without walking [P] itself: an alias
   is a name, not a use of [P]. *)
let with_aliases mods (it : Tast_iterator.iterator) =
  let bind id p =
    Hashtbl.replace mods (Ident.unique_name id) (resolve_in mods p)
  in
  let expr self (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_letmodule (Some id, _, _, me, body) -> (
      match alias_target me with
      | Some p ->
        bind id p;
        self.Tast_iterator.expr self body
      | None -> it.Tast_iterator.expr self e)
    | _ -> it.Tast_iterator.expr self e
  in
  let module_binding self (mb : Typedtree.module_binding) =
    match (mb.mb_id, alias_target mb.mb_expr) with
    | Some id, Some p -> bind id p
    | _ -> it.Tast_iterator.module_binding self mb
  in
  { it with Tast_iterator.expr; module_binding }

(* A dotted path whose head is a submodule of this unit ([Tbl.fold],
   [F.enqueue]) is named from the unit's root like every node; one
   whose head is an alias ([module H = Hashtbl], [let module U = Unix
   in]) is named as the aliased path. *)
let resolve ctx p = resolve_in ctx.w_mods p

let handle_ident ctx ~line (p : Path.t) =
  match p with
  | Path.Pident id -> (
    let key = Ident.unique_name id in
    match Hashtbl.find_opt ctx.w_tops key with
    | Some comps -> record_glob ctx ~line comps
    | None -> record_dep ctx key)
  | _ -> record_glob ctx ~line (resolve ctx p)

(* Does [e]'s subtree mention the telemetry guard ([Config.guard_path])?
   Checked on [if] conditions, so [Ctx.on () && cheap_filter] still
   counts. *)
let mentions_guard ctx (e : Typedtree.expression) =
  let found = ref false in
  let super = Tast_iterator.default_iterator in
  let expr it (x : Typedtree.expression) =
    (match x.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
      if contains_seq ctx.w_config.Config.guard_path (resolve ctx p)
      then found := true
    | _ -> ());
    super.Tast_iterator.expr it x
  in
  let it = { super with Tast_iterator.expr } in
  it.Tast_iterator.expr it e;
  !found

let label_name = function
  | Asttypes.Nolabel -> None
  | Asttypes.Labelled s | Asttypes.Optional s -> Some s

let line_of (e : Typedtree.expression) =
  e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum

let iterator ctx =
  let super = Tast_iterator.default_iterator in
  let expr it (e : Typedtree.expression) =
    let line = line_of e in
    match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> handle_ident ctx ~line p
    | Typedtree.Texp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          let c = fresh_collector () in
          ctx.w_stack <- c :: ctx.w_stack;
          it.Tast_iterator.expr it vb.vb_expr;
          ctx.w_stack <- List.tl ctx.w_stack;
          List.iter
            (fun id -> Hashtbl.replace ctx.w_locals (Ident.unique_name id) c)
            (Typedtree.pat_bound_idents vb.vb_pat))
        vbs;
      it.Tast_iterator.expr it body
    | Typedtree.Texp_apply (f, args) -> (
      match f.exp_desc with
      | Typedtree.Texp_ident (p, _, _) -> (
        let comps =
          match p with
          | Path.Pident id -> (
            match Hashtbl.find_opt ctx.w_tops (Ident.unique_name id) with
            | Some c -> c
            | None -> [ Ident.name id ])
          | _ -> resolve ctx p
        in
        if List.exists (fun r -> r = comps) raising then begin
          (* The raising ident itself is not interesting; arguments get
             allocation amnesty but stay visible to domain rules. *)
          ctx.w_raise <- ctx.w_raise + 1;
          List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args;
          ctx.w_raise <- ctx.w_raise - 1
        end
        else begin
          if
            List.exists
              (fun creator -> contains_seq creator comps)
              ctx.w_config.Config.mutable_creators
          then record_cell ctx ~line (dotted comps);
          match
            List.find_opt
              (fun (s : Config.spawn) -> contains_seq s.Config.s_path comps)
              ctx.w_config.Config.spawn_spec
          with
          | Some spec ->
            it.Tast_iterator.expr it f;
            List.iter
              (fun (lbl, a) ->
                match a with
                | None -> ()
                | Some a ->
                  let main_side =
                    match label_name lbl with
                    | Some l -> List.mem l spec.Config.s_main_labels
                    | None -> false
                  in
                  if main_side then it.Tast_iterator.expr it a
                  else begin
                    let c = fresh_collector () in
                    ctx.w_stack <- c :: ctx.w_stack;
                    it.Tast_iterator.expr it a;
                    ctx.w_stack <- List.tl ctx.w_stack;
                    ctx.w_pending <-
                      { ps_spawn = dotted comps; ps_line = line; ps_col = c }
                      :: ctx.w_pending
                  end)
              args
          | None -> super.Tast_iterator.expr it e
        end)
      | _ -> super.Tast_iterator.expr it e)
    | Typedtree.Texp_ifthenelse (cond, th, el) when mentions_guard ctx cond ->
      it.Tast_iterator.expr it cond;
      ctx.w_guard <- ctx.w_guard + 1;
      it.Tast_iterator.expr it th;
      ctx.w_guard <- ctx.w_guard - 1;
      (match el with Some e2 -> it.Tast_iterator.expr it e2 | None -> ())
    | Typedtree.Texp_record { fields; _ } ->
      if
        Array.exists
          (fun ((ld : Types.label_description), _) ->
            ld.Types.lbl_mut = Asttypes.Mutable)
          fields
      then record_cell ctx ~line "record with mutable fields";
      super.Tast_iterator.expr it e
    | _ -> super.Tast_iterator.expr it e
  in
  with_aliases ctx.w_mods { super with Tast_iterator.expr }

let expr_is_function (e : Typedtree.expression) =
  match e.exp_desc with Typedtree.Texp_function _ -> true | _ -> false

(* Is [me] an application of [Hashtbl.Make] or [Hashtbl.MakeSeeded],
   under any module constraints? *)
let rec is_table ~applied (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_constraint (me', _, _, _) -> is_table ~applied me'
  | Typedtree.Tmod_apply (f, _, _) -> is_table ~applied:true f
  | Typedtree.Tmod_ident (p, _) ->
    applied
    && List.mem (canonical p)
         [ [ "Hashtbl"; "Make" ]; [ "Hashtbl"; "MakeSeeded" ] ]
  | _ -> false

(* A functor argument's bindings are walked under the name of the
   module the application builds. *)
let rec walk_module_expr ctx prefix (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure s -> walk_structure ctx prefix s
  | Typedtree.Tmod_constraint (me', _, _, _) -> walk_module_expr ctx prefix me'
  | Typedtree.Tmod_functor (_, me') -> walk_module_expr ctx prefix me'
  | Typedtree.Tmod_apply (f, arg, _) ->
    walk_module_expr ctx prefix f;
    walk_module_expr ctx prefix arg
  | _ -> ()

and walk_module ctx prefix (mb : Typedtree.module_binding) =
  match mb.mb_id with
  | Some id -> (
    let key = Ident.unique_name id in
    match alias_target mb.mb_expr with
    | Some p -> Hashtbl.replace ctx.w_mods key (resolve ctx p)
    | None ->
      let path = prefix @ [ Ident.name id ] in
      Hashtbl.replace ctx.w_mods key path;
      if is_table ~applied:false mb.mb_expr then
        ctx.w_tables <- dotted path :: ctx.w_tables;
      walk_module_expr ctx path mb.mb_expr)
  | None -> ()

and walk_structure ctx prefix (s : Typedtree.structure) =
  List.iter (walk_item ctx prefix) s.str_items

and walk_item ctx prefix (item : Typedtree.structure_item) =
  match item.str_desc with
  | Typedtree.Tstr_value (_, vbs) ->
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        let ids = Typedtree.pat_bound_idents vb.vb_pat in
        (* Registered before the walk so recursive bindings resolve to
           themselves; unique names make shadowing safe. *)
        List.iter
          (fun id ->
            Hashtbl.replace ctx.w_tops (Ident.unique_name id)
              (prefix @ [ Ident.name id ]))
          ids;
        let c = fresh_collector () in
        ctx.w_stack <- [ c ];
        let it = iterator ctx in
        it.Tast_iterator.expr it vb.vb_expr;
        ctx.w_stack <- [];
        let line = vb.vb_pat.pat_loc.Location.loc_start.Lexing.pos_lnum in
        let is_fun = expr_is_function vb.vb_expr in
        List.iter
          (fun id ->
            let name = dotted (prefix @ [ Ident.name id ]) in
            ctx.w_nodes <-
              { n_name = name;
                n_file = ctx.w_file;
                n_line = line;
                n_fun = is_fun;
                n_refs = List.rev c.k_globs }
              :: ctx.w_nodes;
            if not is_fun then
              List.iter
                (fun (cl_line, desc) ->
                  ctx.w_cells <-
                    { cl_name = name;
                      cl_file = ctx.w_file;
                      cl_line;
                      cl_desc = desc }
                    :: ctx.w_cells)
                c.k_cells)
          ids)
      vbs
  | Typedtree.Tstr_eval (e, _) ->
    (* Top-level effects run on the main domain at load; they are not
       nodes anything can reach, but spawn sites inside them (an
       executable's entry point) must still seed worker roots. *)
    let c = fresh_collector () in
    ctx.w_stack <- [ c ];
    let it = iterator ctx in
    it.Tast_iterator.expr it e;
    ctx.w_stack <- []
  | Typedtree.Tstr_module mb -> walk_module ctx prefix mb
  | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module ctx prefix) mbs
  | Typedtree.Tstr_include incl -> walk_module_expr ctx prefix incl.incl_mod
  | _ -> ()

(* After the whole unit is walked (so every local summary exists),
   chase each spawn argument through local bindings: captured mutable
   cells become P101 [capture]s, global references become
   [spawn_arg]s. *)
let resolve_pending ctx =
  List.concat_map
    (fun ps ->
      let visited = Hashtbl.create 16 in
      let cells = ref [] in
      let globs = ref [] in
      let rec go c =
        List.iter (fun cl -> cells := cl :: !cells) c.k_cells;
        List.iter (fun g -> globs := g :: !globs) c.k_globs;
        List.iter
          (fun dep ->
            if not (Hashtbl.mem visited dep) then begin
              Hashtbl.add visited dep ();
              match Hashtbl.find_opt ctx.w_locals dep with
              | Some c' -> go c'
              | None -> ()
            end)
          c.k_deps
      in
      go ps.ps_col;
      let captures =
        List.sort_uniq compare !cells
        |> List.map (fun (cl_line, desc) ->
               `Capture
                 { cap_file = ctx.w_file;
                   cap_line = cl_line;
                   cap_desc = desc;
                   cap_spawn = ps.ps_spawn;
                   cap_spawn_line = ps.ps_line })
      in
      let args =
        List.rev_map
          (fun g ->
            `Arg { sa_ref = g; sa_spawn = ps.ps_spawn; sa_file = ctx.w_file })
          !globs
      in
      captures @ args)
    (List.rev ctx.w_pending)

let of_structure ~config ~file ~unit_path str =
  let ctx =
    { w_config = config;
      w_file = file;
      w_stack = [];
      w_tops = Hashtbl.create 64;
      w_mods = Hashtbl.create 8;
      w_locals = Hashtbl.create 64;
      w_pending = [];
      w_nodes = [];
      w_cells = [];
      w_sites = [];
      w_tables = [];
      w_guard = 0;
      w_raise = 0 }
  in
  walk_structure ctx unit_path str;
  let resolved = resolve_pending ctx in
  let captures =
    List.filter_map (function `Capture c -> Some c | `Arg _ -> None) resolved
  in
  let args =
    List.filter_map (function `Arg a -> Some a | `Capture _ -> None) resolved
  in
  ( List.rev ctx.w_nodes, List.rev ctx.w_cells, args, captures,
    List.rev ctx.w_sites, ctx.w_tables )

let build ~config units =
  let cg_nodes = Hashtbl.create 512 in
  let cg_cells = Hashtbl.create 64 in
  let spawn_args = ref [] in
  let captures = ref [] in
  let sites = ref [] in
  let tables = ref [] in
  List.iter
    (fun (file, unit_path, str) ->
      let nodes, cells, args, caps, refs, tbls =
        of_structure ~config ~file ~unit_path str
      in
      sites := (file, refs) :: !sites;
      tables := tbls @ !tables;
      List.iter
        (fun n ->
          if not (Hashtbl.mem cg_nodes n.n_name) then
            Hashtbl.add cg_nodes n.n_name n)
        nodes;
      List.iter
        (fun cl ->
          if not (Hashtbl.mem cg_cells cl.cl_name) then
            Hashtbl.add cg_cells cl.cl_name cl)
        cells;
      spawn_args := List.rev_append args !spawn_args;
      captures := List.rev_append caps !captures)
    units;
  { cg_nodes;
    cg_cells;
    cg_spawn_args = List.rev !spawn_args;
    cg_captures = List.rev !captures;
    cg_sites = List.rev !sites;
    cg_tables = !tables }
