(* The rules that judge one resolved reference at a time, read off the
   call graph's per-file sites (H101 lives beside H102 in [Hotpath]).
   Paths are canonical: the typer has resolved every name, so
   [Hashtbl.iter] is stdlib's and [Tbl.fold] is known to be a
   functor-built table's.

   D001 — [iter]/[fold] over [Hashtbl] or a [Hashtbl.Make] table in
   behavior-affecting code: hash order is an accident of the hash
   function and table size.
   D002 — wall clock, ambient randomness and domain identity.
   T201 — a telemetry emit or registry call outside an
   [if Telemetry.Ctx.on () then] branch. *)

let d001 ~tables path =
  match List.rev path with
  | (("iter" | "fold") as f) :: rev_table ->
    let table = List.rev rev_table in
    if table = [ "Hashtbl" ] || List.mem (Callgraph.dotted table) tables
    then
      Some
        (Printf.sprintf
           "%s.%s visits bindings in hash order; sort the collected \
            keys/results or add a pragma explaining order-independence"
           (Callgraph.dotted table) f)
    else None
  | _ -> None

let d002 ~rng_ok path =
  match path with
  | [ "Sys"; "time" ] | [ "Unix"; ("gettimeofday" | "time") ] ->
    Some
      "wall-clock read in simulation code; use Engine.Sim.now / \
       Engine.Time instead"
  | [ "Random"; "self_init" ] ->
    Some "Random.self_init seeds from the environment and breaks replay"
  | [ "Domain"; "self" ] ->
    Some
      "Domain.self ()-dependent branching varies with runner scheduling; \
       behavior must be domain-independent (pragma pool internals with \
       a reason)"
  | "Random" :: _ :: _ when not rng_ok ->
    Some
      "ambient Random.* outside Engine.Rng; draw from the seeded Engine.Rng \
       stream"
  | _ -> None

let t201 path =
  match path with
  | [ "Telemetry"; "Events"; "emit" ] ->
    Some
      "Telemetry.Events.emit outside an [if Telemetry.Ctx.on () then] \
       branch; disabled runs must pay one branch and no allocation"
  | [ "Telemetry"; "Registry"; f ] ->
    Some
      (Printf.sprintf
         "Telemetry.Registry.%s outside an [if Telemetry.Ctx.on () then] \
          branch"
         f)
  | _ -> None

let check ~config (cg : Callgraph.t) =
  let tables = cg.Callgraph.cg_tables in
  List.concat_map
    (fun (file, refs) ->
      let d001_on = Config.d001_applies config file
      and rng_ok = Config.is_rng config file
      and t201_on = Config.t201_applies config file in
      List.concat_map
        (fun (r : Callgraph.vref) ->
          let path = r.Callgraph.g_path in
          List.filter_map
            (fun (rule, msg) ->
              Option.map
                (fun msg -> Finding.make ~file ~line:r.g_line ~rule ~msg)
                msg)
            [ ("D001", if d001_on then d001 ~tables path else None);
              ("D002", d002 ~rng_ok path);
              ("T201", if t201_on && not r.g_guard then t201 path else None) ])
        refs)
    cg.Callgraph.cg_sites
