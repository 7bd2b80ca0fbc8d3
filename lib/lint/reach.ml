(* Transitive closure over the call graph.  Edges are a node's global
   references that (a) the [follow] filter accepts — worker
   reachability follows every reference, hot-path reachability skips
   guarded and raise-argument ones — and (b) resolve to another node.
   References to values outside the graph (stdlib, parameters,
   mli-hidden helpers of unscanned units) fall off the edge set, which
   is the conservative direction for a lint: an unresolved callee
   can't produce a finding, only a resolved one can.

   Each reachable node remembers one witness root so findings can say
   *why* a function is considered worker- or hot-reachable.  BFS order
   over sorted roots makes the witness deterministic. *)

let reachable (nodes : (string, Callgraph.node) Hashtbl.t) ~roots ~follow =
  let seen : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun root ->
      if Hashtbl.mem nodes root && not (Hashtbl.mem seen root) then begin
        Hashtbl.add seen root root;
        Queue.add root queue
      end)
    (List.sort_uniq String.compare roots);
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    let witness = Hashtbl.find seen name in
    match Hashtbl.find_opt nodes name with
    | None -> ()
    | Some n ->
      List.iter
        (fun (r : Callgraph.vref) ->
          if follow r then begin
            let target = Callgraph.dotted r.Callgraph.g_path in
            if Hashtbl.mem nodes target && not (Hashtbl.mem seen target)
            then begin
              Hashtbl.add seen target witness;
              Queue.add target queue
            end
          end)
        n.Callgraph.n_refs
  done;
  seen
