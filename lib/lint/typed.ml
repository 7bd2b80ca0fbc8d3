(* Rule wiring for the typed tier: build the call graph once, run the
   domain-safety and hot-path analyses over it, and scan the hot units
   for option boxes (H103), which needs the typedtree, not the graph.
   [sort_uniq] with [Finding.compare] (which ignores the message)
   collapses the same rule firing at one site through several
   witnesses — one diagnostic per (file, line, rule) keeps reports and
   pragma bookkeeping sane.

   [audited file line] says whether a P101 pragma sits at a mutable
   cell's *definition* site; such a cell is an audited exchange point
   and none of its (possibly many, cross-file) access sites are
   reported.  Pragmas at access sites still work through the caller's
   ordinary per-finding filter. *)

let check ~config ?(audited = fun _ _ -> false) units =
  let cg = Callgraph.build ~config units in
  List.sort_uniq Finding.compare
    (Domains.check ~config ~audited cg
    @ Hotpath.check ~config cg
    @ Optboxes.check ~config units)
