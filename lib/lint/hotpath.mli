(** H101: allocation hazards in hot-module code; H102: the same
    hazards in functions transitively reachable from it.  See
    DESIGN.md "Static analysis: simlint". *)

val check : config:Config.t -> Callgraph.t -> Finding.t list
