(** P101 (domain-escape races) and P102 (main-domain-only API
    enforcement) over the call graph.  [audited file line] marks
    mutable cells whose definition site is pragma-audited.  See
    DESIGN.md "Static analysis: simlint". *)

val check :
  config:Config.t ->
  audited:(string -> int -> bool) ->
  Callgraph.t ->
  Finding.t list
