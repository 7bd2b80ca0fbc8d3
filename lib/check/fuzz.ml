(* Seeded fuzzing harness: generate bounded random specs, run each
   under the full oracle set plus a battery of differential pairings,
   shrink failures greedily, and persist them as replayable corpus
   files.

   Differential pairings per case (all must render byte-identical
   digests):
   - absent vs never-firing fault plan (when the spec has no faults)
   - inline vs worker-domain execution (Runner.Pool, jobs=2)
   - partitioned: the same scenario built on Netsim.Partition and
     driven by Runner.Epoch at jobs=1 vs jobs=2, for every topology

   The [inject] hook exists for the mutation test: it installs a
   deliberate conservation bug into a built scenario, proving the
   harness catches and shrinks exactly the class of defect it is
   built for. *)

type verdict = Pass | Fail of string

let run_case ?inject (spec : Spec.t) =
  let ( let* ) = Result.bind in
  let run_one fault () = Scenario.outcome ?inject ~fault spec in
  let result =
    let* base = run_one Scenario.As_spec () in
    let differential label run =
      let* other = run () in
      Result.map_error
        (fun msg -> Printf.sprintf "differential [%s]: %s" label msg)
        (Diff.compare_outputs ~expect_label:"baseline" ~got_label:label base
           other)
    in
    let* () =
      if spec.Spec.faults = [] then
        differential "noop fault plan" (run_one Scenario.Noop)
      else Ok ()
    in
    (* Worker-domain determinism: the identical scenario rendered on a
       2-domain pool must match the inline baseline byte-for-byte. *)
    let* () =
      match Runner.Pool.map ~jobs:2 (run_one Scenario.As_spec) [ (); () ] with
      | [ a; b ] ->
        let* da = Result.map_error (fun m -> "pool worker 1: " ^ m) a in
        let* db = Result.map_error (fun m -> "pool worker 2: " ^ m) b in
        let* () =
          Result.map_error
            (fun msg -> "differential [pool jobs=2 worker 1]: " ^ msg)
            (Diff.compare_outputs ~expect_label:"baseline"
               ~got_label:"pool worker 1" base da)
        in
        Result.map_error
          (fun msg -> "differential [pool jobs=2 worker 2]: " ^ msg)
          (Diff.compare_outputs ~expect_label:"baseline"
             ~got_label:"pool worker 2" base db)
      | _ -> Error "pool returned wrong arity"
    in
    (* Intra-scenario domain runner: the partitioned build advanced
       inline (epoch loop, jobs=1, no domains) and the same build on
       two worker domains must render one digest and pass the same
       oracles.  This is the determinism proof for the conservative
       parallel DES — the serial reference is the identical algorithm,
       not the single-sim build, whose same-instant tie order a
       partitioned world deliberately does not reproduce. *)
    let* () =
      if Scenario.partitionable spec then
        let partitioned jobs =
          Result.map_error
            (fun m -> Printf.sprintf "domains jobs=%d: %s" jobs m)
            (Scenario.outcome ~partitioned:true ~jobs spec)
        in
        let* d1 = partitioned 1 in
        let* d2 = partitioned 2 in
        Result.map_error
          (fun msg -> "differential [domains jobs=2]: " ^ msg)
          (Diff.compare_outputs ~expect_label:"domains jobs=1"
             ~got_label:"domains jobs=2" d1 d2)
      else Ok ()
    in
    Ok ()
  in
  match result with Ok () -> Pass | Error msg -> Fail msg

(* ----------------------------- shrinking --------------------------- *)

(* Strictly-smaller candidate specs, most aggressive first: drop a
   fault, drop a flow, shrink the topology, halve a flow's size, cut
   the horizon.  Flow/fault indices survive topology shrinking because
   the scenario builder reduces them mod the real counts. *)
let candidates (s : Spec.t) =
  let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs in
  let with_faults faults = { s with Spec.faults } in
  let with_flows flows = { s with Spec.flows } in
  let faults_dropped =
    List.mapi (fun i _ -> with_faults (drop_nth s.Spec.faults i)) s.Spec.faults
  in
  let flows_dropped =
    if List.length s.Spec.flows <= 1 then []
    else
      List.mapi (fun i _ -> with_flows (drop_nth s.Spec.flows i)) s.Spec.flows
  in
  let topo_shrunk =
    match s.Spec.topo with
    | Spec.Pair | Spec.Two_path -> []
    | Spec.Star n ->
      if n > 2 then [ { s with Spec.topo = Spec.Star (n - 1) } ]
      else [ { s with Spec.topo = Spec.Pair } ]
    | Spec.Dumbbell n ->
      if n > 1 then [ { s with Spec.topo = Spec.Dumbbell (n - 1) } ]
      else [ { s with Spec.topo = Spec.Pair } ]
    | Spec.Leaf_spine { leaves; spines; hosts } ->
      let shrunk =
        [ (leaves - 1, spines, hosts);
          (leaves, spines - 1, hosts);
          (leaves, spines, hosts - 1) ]
        |> List.filter (fun (l, sp, h) -> l >= 2 && sp >= 1 && h >= 1)
        |> List.map (fun (l, sp, h) ->
               { s with
                 Spec.topo =
                   Spec.Leaf_spine { leaves = l; spines = sp; hosts = h } })
      in
      if shrunk = [] then [ { s with Spec.topo = Spec.Star 2 } ] else shrunk
    | Spec.Fat_tree { k } ->
      (* k=4 is the smallest proper fat-tree; below that fall back to
         a leaf-spine with the same two-tier shape, then onward down
         that chain. *)
      if k > 4 then [ { s with Spec.topo = Spec.Fat_tree { k = k - 2 } } ]
      else
        [ { s with
            Spec.topo = Spec.Leaf_spine { leaves = 2; spines = 2; hosts = 2 }
          } ]
  in
  let sizes_halved =
    List.mapi
      (fun i f ->
        if f.Spec.f_size <= 1024 then None
        else
          Some
            (with_flows
               (List.mapi
                  (fun j g ->
                    if i = j then { g with Spec.f_size = g.Spec.f_size / 2 }
                    else g)
                  s.Spec.flows)))
      s.Spec.flows
    |> List.filter_map Fun.id
  in
  let duration_cut =
    if s.Spec.duration_us > 400 then
      [ { s with Spec.duration_us = s.Spec.duration_us * 3 / 4 } ]
    else []
  in
  faults_dropped @ flows_dropped @ topo_shrunk @ sizes_halved @ duration_cut

(* Bound on accepted shrink steps: each step re-runs the candidate's
   whole differential set. *)
let max_shrink_steps = 64

let shrink ?inject spec =
  let still_fails s =
    match run_case ?inject s with Fail _ -> true | Pass -> false
  in
  let rec go steps spec =
    if steps >= max_shrink_steps then spec
    else
      match List.find_opt still_fails (candidates spec) with
      | Some smaller -> go (steps + 1) smaller
      | None -> spec
  in
  go 0 spec

(* ------------------------------ corpus ----------------------------- *)

let save ~dir ~name spec =
  let path = Filename.concat dir name in
  Spec.save ~path spec;
  path

let replay path =
  match Spec.load path with
  | Error msg -> Fail (Printf.sprintf "%s: unreadable spec: %s" path msg)
  | Ok spec -> run_case spec

(* MD5 of each outcome a corpus golden pins, so a deterministic change
   of output fails the golden even where every oracle still holds. *)
let pinned_digests (spec : Spec.t) =
  let md5 = function
    | Ok digest -> Digest.to_hex (Digest.string digest)
    | Error _ -> "oracle-failure"
  in
  ("single", md5 (Scenario.outcome spec))
  ::
  (if Scenario.partitionable spec then
     [ ("partitioned-j1", md5 (Scenario.outcome ~partitioned:true ~jobs:1 spec)) ]
   else [])

let corpus_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".case")
    |> List.sort compare
    |> List.map (Filename.concat dir)

(* ----------------------------- campaign ---------------------------- *)

type campaign = {
  cases_run : int;
  failures : (Spec.t * Spec.t * string) list;
      (** (original, shrunk, first failure message), newest first. *)
}

let campaign ?(should_stop = fun () -> false)
    ?(log = fun (_ : string) -> ()) ~cases ~seed () =
  let rng = Engine.Rng.create (0xF0_22 lxor seed) in
  let failures = ref [] in
  let ran = ref 0 in
  (try
     for i = 1 to cases do
       if should_stop () then raise Exit;
       let spec = Spec.generate (Engine.Rng.derive rng i) in
       incr ran;
       match run_case spec with
       | Pass -> ()
       | Fail msg ->
         log (Printf.sprintf "case %d FAILED: %s" i msg);
         log "shrinking...";
         let small = shrink spec in
         failures := (spec, small, msg) :: !failures;
         (* Keep hunting unless the harness is clearly on fire. *)
         if List.length !failures >= 5 then raise Exit
     done
   with Exit -> ());
  { cases_run = !ran; failures = !failures }
