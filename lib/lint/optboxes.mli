(** H103: an optional argument passed with [~x:] at a hot-module call
    site.  See DESIGN.md "Static analysis: simlint". *)

val check :
  config:Config.t ->
  (string * string list * Typedtree.structure) list ->
  Finding.t list
(** [check ~config units] over [(source_file, canonical_unit_path,
    typedtree)] triples; only files in the hot set are scanned. *)
