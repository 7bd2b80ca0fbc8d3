(** Checked-in file-level suppressions ([simlint.allow]).  Format:
    one [RULE path[:line]] per line, ['#'] comments. *)

type entry
type t

val empty : t
val parse_string : string -> (t, string) result
val load : string -> (t, string) result

val apply : t -> Finding.t list -> Finding.t list * entry list
(** [apply t findings] is [(kept, unused)]: the findings no entry
    matched, and the entries that matched no finding (staleness
    candidates). *)

val entry_rule : entry -> string
val entry_file : entry -> string
val entry_to_string : entry -> string
