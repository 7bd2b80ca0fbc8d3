(** D001 (hash-order iteration), D002 (wall clock, ambient
    randomness, domain identity) and T201 (unguarded telemetry) over
    the call graph's reference sites.  See DESIGN.md "Static analysis:
    simlint". *)

val check : config:Config.t -> Callgraph.t -> Finding.t list
