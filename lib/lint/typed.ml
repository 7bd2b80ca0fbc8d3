(* Rule wiring for the typed tier: build the call graph once, run the
   domain-safety and hot-path analyses over it, scan the hot units
   for option boxes (H103) and polymorphic compare or hash (H104),
   which need the typedtree, not the graph, and check the scanned
   interfaces against every reference in the build (U101/U102).
   [sort_uniq] with [Finding.compare] (which ignores the message)
   collapses the same rule firing at one site through several
   witnesses — one diagnostic per (file, line, rule) keeps reports and
   pragma bookkeeping sane.

   [audited file line] says whether a P101 pragma sits at a mutable
   cell's *definition* site; such a cell is an audited exchange point
   and none of its (possibly many, cross-file) access sites are
   reported.  Pragmas at access sites still work through the caller's
   ordinary per-finding filter. *)

type program = {
  impls : (string * string list * Typedtree.structure) list;
  intfs : (string * string list * Typedtree.signature) list;
  world : (string * string list * Typedtree.structure) list;
  expand_env : Env.t -> Env.t;
}

let check ~config ?(audited = fun _ _ -> false) p =
  let cg = Callgraph.build ~config p.impls in
  List.sort_uniq Finding.compare
    (Domains.check ~config ~audited cg
    @ Hotpath.check ~config cg
    @ Optboxes.check ~config p.impls
    @ Polycmp.check ~config ~expand_env:p.expand_env p.impls
    @ Exports.check ~config ~intfs:p.intfs p.world)
