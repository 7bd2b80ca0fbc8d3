(** Type OCaml source strings in-process and run the typed tier on
    them — the test harness for P101/P102/H102/H103 fixtures and the P101
    mutation test (no .cmt exists for a mutated source). *)

type unit_src = {
  u_name : string;  (** canonical dotted unit name, e.g. "Runner.Pool" *)
  u_file : string;  (** reported in findings; pragma scanning uses it *)
  u_src : string;
}

val type_units :
  unit_src list ->
  ((string * string list * Typedtree.structure) list, string) result
(** Type units in order; each becomes visible to later units as a
    module named by the last component of its [u_name].  Only stdlib
    and earlier units are in scope. *)

val analyze : config:Config.t -> unit_src list -> (Finding.t list, string) result
(** [type_units] + [Typed.check] + each unit's own inline pragmas. *)
