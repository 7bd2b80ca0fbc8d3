(* [.cmt] discovery for simlint.  dune drops one cmt per
   compilation unit under
   [_build/default/<dir>/.<lib>.objs/byte/<lib>__<Module>.cmt]
   (executables use [.<exe>.eobjs/byte/dune__exe__<Module>.cmt]), each
   recording the compiler-relative source path ("lib/runner/pool.ml")
   and the mangled module name ("Runner__Pool").  The loader walks
   [_build/default], reads every implementation cmt, and
   canonicalizes the module name by splitting dune's "__" mangling
   (the [Dune.Exe] prefix of executables is dropped — nothing
   cross-references an executable's modules, but its own spawn sites
   must still be walked).  Every
   implementation, tests and examples included, joins the [world]
   whose references U101/U102 count; those whose recorded source lies
   under one of the requested dirs are analyzed, together with the
   [.cmti] of their interface.

   Wrapper/alias units (netsim.ml-gen and friends) have generated
   sources and carry no code of their own; filtering on a real ".ml"
   suffix drops them.  A cmt that fails to read (version skew, partial
   build) is an error: simlint must not silently analyze less than
   the build.

   A cmt stores each typedtree node's environment as a summary only.
   [expand_env] rebuilds the full one (Envaux) from the cmis on the
   analyzed units' own load paths, which dune records relative to
   [_build/default]. *)

let rec walk dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then
          (* Skip ppx/merlin droppings but keep dune's dot-dirs: the
             .objs directories are exactly where the cmts live. *)
          if name = ".ppx" || name = ".merlin-conf" then acc
          else walk path acc
        else if
          Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
        then path :: acc
        else acc)
      acc entries

(* [dune build @all] compiles an executable module that has an
   interface (dune's implicit empty one included) natively only, so
   its cmt is missing although the unit exists; [@check] builds it.
   The unit's native object gives it away. *)
let missing_impl_cmt path =
  Filename.check_suffix path ".cmti"
  &&
  let base = Filename.chop_suffix path ".cmti" in
  let native =
    Filename.concat
      (Filename.concat (Filename.dirname (Filename.dirname base)) "native")
      (Filename.basename base ^ ".cmx")
  in
  (not (Sys.file_exists (base ^ ".cmt"))) && Sys.file_exists native

let canonical_unit modname =
  match Callgraph.normalize [ modname ] with
  | "Dune" :: "exe" :: rest | "dune" :: "exe" :: rest -> rest
  | comps -> comps

let read path =
  match Cmt_format.read_cmt path with
  | cmt -> Ok cmt
  | exception exn ->
    Error
      (Printf.sprintf "%s: unreadable cmt (%s)" path (Printexc.to_string exn))

let env_expander ~build loadpath =
  let dirs =
    List.map
      (fun d -> if Filename.is_relative d then Filename.concat build d else d)
      loadpath
  in
  Load_path.init ~auto_include:Load_path.no_auto_include dirs;
  Envaux.reset_cache ();
  fun env -> try Envaux.env_of_only_summary env with Envaux.Error _ -> env

let load ~root ~dirs =
  let build = Filename.concat root (Filename.concat "_build" "default") in
  if not (Sys.file_exists build) then
    Error
      (Printf.sprintf
         "%s not found; run `dune build @all @check` before simlint (it \
          reads the build's .cmt files)"
         build)
  else begin
    let found = walk build [] in
    let cmts =
      List.sort String.compare
        (List.filter (fun p -> Filename.check_suffix p ".cmt") found)
    in
    let seen_sources = Hashtbl.create 64 in
    let world = ref [] and impls = ref [] and intfs = ref [] in
    let errors = ref [] in
    let loadpath = ref [] in
    List.iter
      (fun path ->
        match read path with
        | Error e -> errors := e :: !errors
        | Ok cmt -> (
          match (cmt.Cmt_format.cmt_sourcefile, cmt.Cmt_format.cmt_annots) with
          | Some src, Cmt_format.Implementation str
            when Filename.check_suffix src ".ml"
                 && not (Hashtbl.mem seen_sources src) ->
            Hashtbl.add seen_sources src ();
            let unit_path = canonical_unit cmt.Cmt_format.cmt_modname in
            world := (src, unit_path, str) :: !world;
            if Config.in_dirs src dirs then begin
              impls := (src, unit_path, str) :: !impls;
              List.iter
                (fun d ->
                  if not (List.mem d !loadpath) then loadpath := d :: !loadpath)
                cmt.Cmt_format.cmt_loadpath;
              (* The interface's cmti sits beside the cmt. *)
              let cmti = Filename.chop_suffix path ".cmt" ^ ".cmti" in
              if Sys.file_exists cmti then
                match read cmti with
                | Error e -> errors := e :: !errors
                | Ok i -> (
                  match (i.Cmt_format.cmt_sourcefile, i.Cmt_format.cmt_annots) with
                  | Some mli, Cmt_format.Interface sg ->
                    intfs := (mli, unit_path, sg) :: !intfs
                  | _ -> ())
            end
          | _ -> ()))
      cmts;
    let by_file l = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) l in
    match (!errors, List.find_opt missing_impl_cmt found) with
    | e :: _, _ -> Error e
    | [], Some cmti ->
      Error
        (Printf.sprintf
           "%s has no implementation cmt beside it; run `dune build @check` \
            before simlint"
           cmti)
    | [], None ->
      if !impls = [] then
        Error
          (Printf.sprintf
             "no .cmt files under %s cover %s; run `dune build` first" build
             (String.concat " " dirs))
      else
        Ok
          { Typed.impls = by_file !impls;
            intfs = by_file !intfs;
            world = by_file !world;
            expand_env = env_expander ~build (List.rev !loadpath) }
  end
