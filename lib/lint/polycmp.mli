(** D003: float equality against a literal, in every scanned unit;
    H104: polymorphic compare or hash, in a hot module.  See DESIGN.md
    "Static analysis: simlint". *)

val check :
  config:Config.t ->
  expand_env:(Env.t -> Env.t) ->
  (string * string list * Typedtree.structure) list ->
  Finding.t list
(** [check ~config ~expand_env units] over [(source_file,
    canonical_unit_path, typedtree)] triples.  [expand_env] completes a
    node's environment so type abbreviations expand. *)
