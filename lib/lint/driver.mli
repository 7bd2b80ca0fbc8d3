(** Scanning, filtering and the CLI used by [bin/simlint] and the
    fixture tests. *)

val scan_files :
  root:string -> dirs:string list -> (string list, string) result
(** Every [.ml] and [.mli] under [root]/[dirs], root-relative and
    sorted, skipping [_]- and [.]-prefixed entries; [Error] names a
    missing directory. *)

val run :
  ?config:Config.t ->
  ?rule_enabled:(string -> bool) ->
  root:string ->
  dirs:string list ->
  Typed.program ->
  (Finding.t list * Finding.t list, string) result
(** Run every rule over the program ({!Typed.check}) and M001 over the
    files under [dirs], drop pragma-suppressed findings and those of
    rules [rule_enabled] refuses, sort.  Returns the kept findings and
    the *stale* pragmas of the files under [dirs]: those that
    suppressed nothing although their rule ran, and those that name no
    rule.  [Error] names a missing directory. *)

val main :
  ?config:Config.t ->
  load:(root:string -> dirs:string list -> (Typed.program, string) result) ->
  string array ->
  int
(** The simlint CLI over the program [load] returns for [--root] and
    the scanned dirs, each passed to [load] and {!run} with a leading
    [./] and any trailing [/] stripped (so [lib/] and [./lib] scan
    [lib]): returns the process exit code (0 clean, 1
    findings or stale pragmas, 2 usage or loading error). *)
