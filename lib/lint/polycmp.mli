(** H104: polymorphic compare or hash in a hot module.  See DESIGN.md
    "simlint v2". *)

val check :
  config:Config.t ->
  expand_env:(Env.t -> Env.t) ->
  (string * string list * Typedtree.structure) list ->
  Finding.t list
(** [check ~config ~expand_env units] over [(source_file,
    canonical_unit_path, typedtree)] triples; only files in the hot set
    are scanned.  [expand_env] completes a node's environment so type
    abbreviations expand. *)
