(* Rule wiring: build the call graph once and run the per-reference
   rules (D001/D002/T201), the domain-safety analyses (P101/P102) and
   the hot-path ones (H101/H102) over it, scan the units for float
   equality (D003), option boxes (H103) and polymorphic compare or
   hash (H104), which need the typedtree, not the graph, and check the
   scanned interfaces against every reference in the build
   (U101/U102).  M001 is a property of the file set and lives in
   [Driver].

   [sort_uniq] with [Finding.compare] (which ignores the message)
   collapses the same rule firing at one site through several
   witnesses — one diagnostic per (file, line, rule) keeps reports and
   pragma bookkeeping sane.

   [pragmas file] are the inline pragmas of a source file.  A finding
   a pragma covers is dropped; a P101 pragma at a mutable cell's
   *definition* site makes the cell an audited exchange point, and
   none of its (possibly many, cross-file) access sites are
   reported. *)

type program = {
  impls : (string * string list * Typedtree.structure) list;
  intfs : (string * string list * Typedtree.signature) list;
  world : (string * string list * Typedtree.structure) list;
  expand_env : Env.t -> Env.t;
}

let check ~config ~pragmas p =
  let suppressed file ~line ~rule =
    Pragma.suppressed (pragmas file) ~line ~rule
  in
  let audited file line = suppressed file ~line ~rule:"P101" in
  let cg = Callgraph.build ~config p.impls in
  List.filter
    (fun (f : Finding.t) ->
      not (suppressed f.Finding.file ~line:f.Finding.line ~rule:f.Finding.rule))
  @@ List.sort_uniq Finding.compare
    (Idents.check ~config cg
    @ Domains.check ~config ~audited cg
    @ Hotpath.check ~config cg
    @ Optboxes.check ~config p.impls
    @ Polycmp.check ~config ~expand_env:p.expand_env p.impls
    @ Exports.check ~config ~intfs:p.intfs p.world)
