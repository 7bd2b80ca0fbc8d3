(** Type OCaml source strings in-process and run the typed tier on
    them — the test harness for the typed rules' fixtures and the P101
    mutation test (no .cmt exists for a mutated source). *)

type unit_src = {
  u_name : string;  (** canonical dotted unit name, e.g. "Runner.Pool" *)
  u_file : string;  (** reported in findings; pragma scanning uses it *)
  u_src : string;
  u_intf : string option;
      (** interface source, reported as [u_file ^ "i"]; later units
          see the unit through it, and U101/U102 check it *)
}

val analyze : config:Config.t -> unit_src list -> (Finding.t list, string) result
(** Type units in order, each visible to later units as a module named
    by the last component of its [u_name] (only stdlib and earlier
    units are in scope), then run [Typed.check] with every unit both
    analyzed and in the reference world, and apply each unit's own
    inline pragmas. *)
