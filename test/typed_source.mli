(** Type OCaml sources in-process and run simlint on them — the test
    harness for the rules' fixtures and the mutation tests (no .cmt
    exists for a mutated source). *)

type unit_src = {
  u_name : string;  (** canonical dotted unit name, e.g. "Runner.Pool" *)
  u_file : string;  (** reported in findings; pragma scanning uses it *)
  u_src : string;
  u_intf : string option;
      (** interface source, reported as [u_file ^ "i"]; later units
          see the unit through it, and U101/U102 check it *)
}

val load :
  stubs:unit_src list ->
  root:string ->
  dirs:string list ->
  (Lint.Typed.program, string) result
(** The program [Lint.Driver.run] checks, typed from the sources
    instead of the build: every [.ml] under [root]/[dirs], named by its
    capitalised basename, typed after [stubs], which are visible to
    the sources and analyzed with them. *)

val analyze :
  config:Lint.Config.t ->
  unit_src list ->
  (Lint.Finding.t list, string) result
(** Type units in order, each visible to later units as a module named
    by the last component of its [u_name] (only stdlib and earlier
    units are in scope), then run [Lint.Typed.check] with every unit
    both analyzed and in the reference world, and apply each unit's
    own inline pragmas. *)
