(** Every simlint rule but M001 over a typed program. *)

type program = {
  impls : (string * string list * Typedtree.structure) list;
      (** [(source_file, canonical_unit_path, typedtree)] of every
          implementation under the scanned dirs *)
  intfs : (string * string list * Typedtree.signature) list;
      (** the interfaces of [impls], keyed by their [.mli] file *)
  world : (string * string list * Typedtree.structure) list;
      (** every implementation in the build, scanned or not: the
          references U101/U102 count *)
  expand_env : Env.t -> Env.t;
      (** the environment a typedtree node was typed in, complete
          enough to expand type abbreviations (H104); a .cmt keeps
          only its summary *)
}

val check :
  config:Config.t -> pragmas:(string -> Pragma.t) -> program -> Finding.t list
(** One finding per (file, line, rule), none that a pragma of
    [pragmas file] covers.  A P101 pragma at a mutable cell's
    definition site marks an audited exchange point whose access sites
    are not reported.  Every pragma that hides a finding either way is
    marked consumed ({!Pragma.unused}). *)
