(** Inline suppression pragmas: a comment that reads [simlint: allow],
    then a rule id and a reason, suppresses that rule on the pragma's
    line and the line below it.  A pragma that never suppresses a
    finding is stale ({!unused}). *)

type t

val scan : string -> t
(** Scan raw source text for pragmas. *)

val suppressed : t -> line:int -> rule:string -> bool
(** Whether a pragma of [t] covers [rule] at [line]; every pragma that
    does is marked consumed. *)

val unused : t -> (int * string) list
(** [(line, rule)] of every pragma no {!suppressed} call consumed. *)
