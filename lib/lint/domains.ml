(* Domain-safety rules over the call graph.

   P101 — domain-escape race detection.  Three shapes:
     (a) a locally-created non-atomic mutable cell captured by a
         worker-entry argument (the un-atomic'd pool counter);
     (b) a worker-entry argument that directly references a
         module-scope mutable cell (a job thunk closing over a global
         ref);
     (c) a function reachable from a worker entry point that reads or
         writes a module-scope mutable cell.
   Telemetry-guarded branches ([if Ctx.on () then]) run on workers
   too (each job and partition emits into a context of its own), so
   they are followed like any other code.  Audited exchange points
   (the runner team's control block) carry an inline P101 pragma.

   P102 — main-domain-only API enforcement.  The telemetry exporters
   and Exp_common's result sinks ([Config.offmain_forbidden]) must be
   unreachable from worker entry points. *)

let forbidden config path =
  List.exists
    (fun pat -> Callgraph.contains_seq pat path)
    config.Config.offmain_forbidden

let check ~config ~audited (cg : Callgraph.t) =
  let findings = ref [] in
  let add ~file ~line ~rule ~msg =
    findings := Finding.make ~file ~line ~rule ~msg :: !findings
  in
  (* (a) captured local cells. *)
  List.iter
    (fun (c : Callgraph.capture) ->
      add ~file:c.cap_file ~line:c.cap_line ~rule:"P101"
        ~msg:
          (Printf.sprintf
             "non-atomic mutable state (%s) created here escapes into a \
              worker domain via %s (line %d); share it as Atomic.t, keep it \
              domain-local, or pragma an audited exchange point"
             c.cap_desc c.cap_spawn c.cap_spawn_line))
    cg.cg_captures;
  (* P101 and P102 on one worker-reachable reference; [via] says how a
     worker reaches it. *)
  let audit ~file ~via (r : Callgraph.vref) =
    let target = Callgraph.dotted r.Callgraph.g_path in
    (match Hashtbl.find_opt cg.cg_cells target with
    | Some cell when not (audited cell.Callgraph.cl_file cell.cl_line) ->
      add ~file ~line:r.Callgraph.g_line ~rule:"P101"
        ~msg:
          (Printf.sprintf
             "%s (%s at %s:%d) is module-scope mutable state %s; make it \
              Atomic, pass it through the job, or pragma an audited \
              exchange point"
             target cell.cl_desc cell.cl_file cell.cl_line via)
    | _ -> ());
    if forbidden config r.Callgraph.g_path then
      add ~file ~line:r.Callgraph.g_line ~rule:"P102"
        ~msg:(Printf.sprintf "%s is main-domain-only but is %s" target via)
  in
  (* (b) direct references from worker-entry arguments. *)
  List.iter
    (fun (a : Callgraph.spawn_arg) ->
      audit ~file:a.sa_file a.sa_ref
        ~via:("referenced by a worker-entry argument of " ^ a.sa_spawn))
    cg.cg_spawn_args;
  (* (c) the interprocedural tier: close over the graph from worker
     roots, then audit every reachable function's references. *)
  let roots =
    List.map
      (fun (a : Callgraph.spawn_arg) ->
        Callgraph.dotted a.sa_ref.Callgraph.g_path)
      cg.cg_spawn_args
  in
  let reach = Reach.reachable cg.cg_nodes ~roots ~follow:(fun _ -> true) in
  (* simlint: allow D001 — collected pairs are sorted before use *)
  let reached = Hashtbl.fold (fun k w acc -> (k, w) :: acc) reach [] in
  List.iter
    (fun (name, witness) ->
      match Hashtbl.find_opt cg.cg_nodes name with
      | None -> ()
      (* A non-function node's references are its *initializer*, which
         ran once at module load on the main domain; the node itself is
         traversed (a worker can call functions stored in it) but its
         init-time accesses are not worker accesses. *)
      | Some n when not n.Callgraph.n_fun -> ()
      | Some n ->
        let via =
          Printf.sprintf "reached from worker entry point %s via %s"
            witness name
        in
        List.iter (audit ~file:n.n_file ~via) n.n_refs)
    (List.sort compare reached);
  List.rev !findings
