(* Hot-path allocation hazards: [Printf], [^], [@] / [List.append]
   and the closure-building [Fun] combinators.

   H101 — a hazard anywhere in a hot module, outside a raise argument
   (an error message may allocate).  Guard branches are not exempt:
   a hot module formats nothing, traced or not.

   H102 — the same property across calls: any function outside the
   hot set that allocates and is transitively reachable from
   hot-module code gets flagged, so an innocent helper in lib/core
   that allocates per packet is caught even though it lives outside
   the hot file set.  Edges through guard branches are skipped
   (telemetry-disabled runs never execute them — allocation there is
   the accepted price of [--trace]), as are edges and hazards inside
   raise arguments.  Hazards *inside* hot modules are H101's findings,
   not H102's — one rule per site. *)

(* Operators must match the whole path ([^] is Stdlib's; a module's
   own [M.(^)] canonicalizes to [M.^] and stays out), module-qualified
   hazards match anywhere in the path. *)
let hazard path =
  match path with
  | [ "^" ] -> Some "string concatenation (^)"
  | [ "@" ] -> Some "list append (@)"
  | _ ->
    if Callgraph.contains_seq [ "Printf" ] path then
      Some ("Printf call (" ^ Callgraph.dotted path ^ ")")
    else if Callgraph.contains_seq [ "List"; "append" ] path then
      Some "List.append"
    else if
      List.exists
        (fun f -> Callgraph.contains_seq [ "Fun"; f ] path)
        [ "flip"; "negate"; "const" ]
    then Some ("closure-building " ^ Callgraph.dotted path)
    else None

let h101 ~config (cg : Callgraph.t) =
  List.concat_map
    (fun (file, refs) ->
      List.filter_map
        (fun (r : Callgraph.vref) ->
          match hazard r.Callgraph.g_path with
          | Some desc when Config.is_hot config file && not r.Callgraph.g_raise
            ->
            Some
              (Finding.make ~file ~line:r.Callgraph.g_line ~rule:"H101"
                 ~msg:(desc ^ " allocates on the hot path outside a raise \
                               argument"))
          | _ -> None)
        refs)
    cg.Callgraph.cg_sites

let h102 ~config (cg : Callgraph.t) =
  let is_hot_node (n : Callgraph.node) = Config.is_hot config n.n_file in
  let roots =
    (* simlint: allow D001 — root order is irrelevant: Reach sorts them *)
    Hashtbl.fold
      (fun name n acc -> if is_hot_node n then name :: acc else acc)
      cg.cg_nodes []
  in
  let reach =
    Reach.reachable cg.cg_nodes ~roots
      ~follow:(fun r ->
        not r.Callgraph.g_guard && not r.Callgraph.g_raise)
  in
  let findings = ref [] in
  (* simlint: allow D001 — collected pairs are sorted before use *)
  let reached = Hashtbl.fold (fun k w acc -> (k, w) :: acc) reach [] in
  List.iter
    (fun (name, witness) ->
      match Hashtbl.find_opt cg.cg_nodes name with
      | None -> ()
      (* Non-function nodes are module initializers: load-time, not
         per-event work (still traversed so function tables in data are
         followed). *)
      | Some n when not n.Callgraph.n_fun -> ()
      | Some n ->
        if not (is_hot_node n) then
          List.iter
            (fun (r : Callgraph.vref) ->
              if not r.Callgraph.g_guard && not r.Callgraph.g_raise then
                match hazard r.Callgraph.g_path with
                | Some desc ->
                  findings :=
                    Finding.make ~file:n.n_file ~line:r.Callgraph.g_line
                      ~rule:"H102"
                      ~msg:
                        (Printf.sprintf
                           "%s allocates in %s, which is reachable from \
                            hot-path code (%s); hoist the allocation out of \
                            the per-event path or pragma a setup-only call \
                            site"
                           desc n.n_name witness)
                    :: !findings
                | None -> ())
            n.n_refs)
    (List.sort compare reached);
  List.rev !findings

let check ~config cg = h101 ~config cg @ h102 ~config cg
