(** Scanning, filtering and the CLI used by [bin/simlint] and the
    fixture tests. *)

val run :
  ?config:Config.t ->
  ?allowlist:Allowlist.t ->
  ?typed:bool ->
  ?rule_enabled:(string -> bool) ->
  root:string ->
  dirs:string list ->
  unit ->
  (Finding.t list * Allowlist.entry list, string) result
(** Parse every [.ml], apply the AST rules (plus the typed tier over
    the build's cmts when [typed]), drop pragma- and
    allowlist-suppressed findings, add M001, sort.  Returns the kept
    findings and the *stale* allowlist entries: entries that matched
    nothing even though their rule ran over their file's directory.
    [Error] carries a parse failure, a cmt-loading failure, or a
    missing directory. *)

val main : ?config:Config.t -> string array -> int
(** The simlint CLI: returns the process exit code (0 clean,
    1 findings or stale allowlist entries, 2 usage/parse error). *)
