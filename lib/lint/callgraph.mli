(** Whole-program representation for simlint: one node per
    module-scope value binding with guard/raise-tagged global
    references, every reference site per file, the functor-built hash
    tables, module-scope mutable cells, worker-spawn argument
    references and locally-captured mutable cells.  Built from [.cmt]
    typedtrees ([Cmt_loader]) or from units the tests type
    in-process. *)

type vref = {
  g_path : string list;
      (** canonical dotted-path components, leading [Stdlib] dropped *)
  g_line : int;
  g_guard : bool;
      (** inside an [if ... Ctx.on () ... then] branch: dead on worker
          domains and on telemetry-disabled runs *)
  g_raise : bool;
      (** inside a raise/failwith/invalid_arg argument: the cold error
          path, exempt from allocation accounting *)
}

type node = {
  n_name : string;
  n_file : string;
  n_line : int;
  n_fun : bool;
  n_refs : vref list;
}

type cell = {
  cl_name : string;
  cl_file : string;
  cl_line : int;
  cl_desc : string;
}
(** A module-scope non-atomic mutable slot. *)

type spawn_arg = { sa_ref : vref; sa_spawn : string; sa_file : string }
(** A global reference occurring in a worker-entry argument of a
    [Config.spawn_spec] call (chased through local [let] bindings). *)

type capture = {
  cap_file : string;
  cap_line : int;
  cap_desc : string;
  cap_spawn : string;
  cap_spawn_line : int;
}
(** A locally-created mutable cell that flows into a worker-entry
    argument — the un-atomic'd-counter shape P101 exists for. *)

type t = {
  cg_nodes : (string, node) Hashtbl.t;
  cg_cells : (string, cell) Hashtbl.t;
  cg_spawn_args : spawn_arg list;
  cg_captures : capture list;
  cg_sites : (string * vref list) list;
      (** per source file, every global reference in source order,
          inside a named binding or not *)
  cg_tables : string list;
      (** dotted paths of the modules built by [Hashtbl.Make] or
          [Hashtbl.MakeSeeded] *)
}

val build :
  config:Config.t -> (string * string list * Typedtree.structure) list -> t
(** [build ~config units] over [(source_file, canonical_unit_path,
    typedtree)] triples. *)

val dotted : string list -> string
val normalize : string list -> string list
val canonical : Path.t -> string list
(** A resolved path's canonical components ([normalize]d). *)

val contains_seq : string list -> string list -> bool
(** [contains_seq pat path]: does [path] contain [pat]'s components
    consecutively? *)
