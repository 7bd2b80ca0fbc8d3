(* Domain-safety rules over the call graph.

   P101 — domain-escape race detection.  Three shapes:
     (a) a locally-created non-atomic mutable cell captured by a
         worker-entry argument (the un-atomic'd pool counter);
     (b) a worker-entry argument that directly references a
         module-scope mutable cell (a job thunk closing over a global
         ref);
     (c) a function reachable from a worker entry point that reads or
         writes a module-scope mutable cell.
   Guarded references ([if ... Ctx.on () ... then]) are exempt: the
   guard returns false off the main domain, so the branch is dead on
   workers.  Audited exchange points (the runner team's control
   block, the telemetry guard's own flag read) carry an inline P101
   pragma.

   P102 — main-domain-only API enforcement.  The telemetry commit
   side and Exp_common's result sinks ([Config.offmain_forbidden])
   must be unreachable from worker entry points outside guard
   branches.  This is the static replacement for the runtime-only
   [Ctx.on] check: a clean run proves every worker-reachable
   telemetry site is dominated by the guard. *)

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
  (* (b) direct references from worker-entry arguments, plus P102 on
     the same references. *)
  let unguarded_args =
    List.filter
      (fun (a : Callgraph.spawn_arg) -> not a.sa_ref.Callgraph.g_guard)
      cg.cg_spawn_args
  in
  List.iter
    (fun (a : Callgraph.spawn_arg) ->
      let target = Callgraph.dotted a.sa_ref.Callgraph.g_path in
      (match Hashtbl.find_opt cg.cg_cells target with
      | Some cell when not (audited cell.Callgraph.cl_file cell.cl_line) ->
        add ~file:a.sa_file ~line:a.sa_ref.Callgraph.g_line ~rule:"P101"
          ~msg:
            (Printf.sprintf
               "%s (%s at %s:%d) is module-scope mutable state referenced \
                by a worker-entry argument of %s"
               target cell.cl_desc cell.cl_file cell.cl_line a.sa_spawn)
      | _ -> ());
      if forbidden config a.sa_ref.Callgraph.g_path then
        add ~file:a.sa_file ~line:a.sa_ref.Callgraph.g_line ~rule:"P102"
          ~msg:
            (Printf.sprintf
               "%s is main-domain-only but a worker-entry argument of %s \
                calls it outside a Telemetry.Ctx.on guard"
               target a.sa_spawn))
    unguarded_args;
  (* (c) the interprocedural tier: close over the graph from worker
     roots, then audit every reachable function's references. *)
  let roots =
    List.map
      (fun (a : Callgraph.spawn_arg) ->
        Callgraph.dotted a.sa_ref.Callgraph.g_path)
      unguarded_args
  in
  let reach =
    Reach.reachable cg.cg_nodes ~roots
      ~follow:(fun r -> not r.Callgraph.g_guard)
  in
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
        List.iter
          (fun (r : Callgraph.vref) ->
            if not r.Callgraph.g_guard then begin
              let target = Callgraph.dotted r.Callgraph.g_path in
              (match Hashtbl.find_opt cg.cg_cells target with
              | Some cell when not (audited cell.Callgraph.cl_file cell.cl_line)
                ->
                add ~file:n.n_file ~line:r.Callgraph.g_line ~rule:"P101"
                  ~msg:
                    (Printf.sprintf
                       "%s (%s at %s:%d) is module-scope mutable state \
                        reached from worker entry point %s via %s; make it \
                        Atomic, pass it through the job, or pragma an \
                        audited exchange point"
                       target cell.cl_desc cell.cl_file cell.cl_line witness
                       name)
              | _ -> ());
              if forbidden config r.Callgraph.g_path then
                add ~file:n.n_file ~line:r.Callgraph.g_line ~rule:"P102"
                  ~msg:
                    (Printf.sprintf
                       "%s is main-domain-only but is reachable from worker \
                        entry point %s via %s outside a Telemetry.Ctx.on \
                        guard"
                       target witness name)
            end)
          n.n_refs)
    (List.sort compare reached);
  List.rev !findings
