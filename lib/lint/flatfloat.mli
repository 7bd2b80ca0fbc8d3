(** H105: a mutable float field in a record OCaml does not store flat.
    See DESIGN.md "Static analysis: simlint". *)

val check :
  config:Config.t ->
  expand_env:(Env.t -> Env.t) ->
  (string * string list * Typedtree.structure) list ->
  Finding.t list
(** [check ~config ~expand_env units] over [(source_file,
    canonical_unit_path, typedtree)] triples; only files under
    [config]'s [mli_dirs] are scanned.  [expand_env] completes a
    declaration's environment so type abbreviations expand. *)
