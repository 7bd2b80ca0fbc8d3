(** U101 (exports no other unit references) and U102 (optional
    parameters no application passes).  See DESIGN.md "Static
    analysis: simlint". *)

val check :
  config:Config.t ->
  intfs:(string * string list * Typedtree.signature) list ->
  (string * string list * Typedtree.structure) list ->
  Finding.t list
(** [check ~config ~intfs world]: [intfs] are the scanned interfaces
    as [(mli_file, canonical_unit_path, signature)]; only those under
    [Config.mli_dirs] are checked.  [world] is every implementation
    whose references count, tests and examples included. *)
