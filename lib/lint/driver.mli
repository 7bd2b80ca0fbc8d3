(** Scanning, filtering and the CLI used by [bin/simlint] and the
    fixture tests. *)

val scan_files :
  root:string -> dirs:string list -> (string list, string) result
(** Every [.ml] and [.mli] under [root]/[dirs], root-relative and
    sorted, skipping [_]- and [.]-prefixed entries; [Error] names a
    missing directory. *)

val run :
  ?config:Config.t ->
  ?allowlist:Allowlist.t ->
  ?rule_enabled:(string -> bool) ->
  root:string ->
  dirs:string list ->
  Typed.program ->
  (Finding.t list * Allowlist.entry list, string) result
(** Run every rule over the program ({!Typed.check}) and M001 over the
    files under [dirs], drop pragma- and allowlist-suppressed
    findings, sort.  Returns the kept findings and the *stale*
    allowlist entries: entries that matched nothing even though their
    rule ran over their file's directory.  [Error] names a missing
    directory. *)

val main :
  ?config:Config.t ->
  load:(root:string -> dirs:string list -> (Typed.program, string) result) ->
  string array ->
  int
(** The simlint CLI over the program [load] returns for [--root] and
    the scanned dirs: returns the process exit code (0 clean, 1
    findings or stale allowlist entries, 2 usage or loading error). *)
