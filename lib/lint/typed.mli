(** The typed tier: P101/P102/H102/H103 over a set of typed units. *)

val check :
  config:Config.t ->
  ?audited:(string -> int -> bool) ->
  (string * string list * Typedtree.structure) list ->
  Finding.t list
(** [check ~config units] over [(source_file, canonical_unit_path,
    typedtree)] triples; one finding per (file, line, rule).
    [audited file line] (default: never) marks a mutable cell whose
    definition site carries a P101 pragma: an audited exchange point
    whose access sites are not reported. *)
