(* A worker-domain entry point: any function value referenced inside
   an argument of a call whose head matches [s_path] (consecutive
   component match, so both [Domain.spawn] and [Stdlib.Domain.spawn]
   hit) starts running on a worker domain.  Labelled arguments in
   [s_main_labels] are explicitly main-domain (Epoch's [~exchange]
   runs between windows on main, Exp_common's [~commit] after the
   drain). *)
type spawn = { s_path : string list; s_main_labels : string list }

type t = {
  hot_modules : string list;
  d001_dirs : string list;
  t201_dirs : string list;
  t201_exempt_dirs : string list;
  rng_modules : string list;
  mli_dirs : string list;
  spawn_spec : spawn list;
  guard_path : string list;
  offmain_forbidden : string list list;
  mutable_creators : string list list;
}

(* The hot set mirrors the datapath bench: modules on the per-event /
   per-packet path whose allocation behavior is guarded by
   BENCH_engine.json — including the link's neighbours (pktring
   carries the in-flight packets, switch and node receive every
   delivery), the MTP ack path (endpoint, its pathlet table and
   controllers, and the stamping qdisc hook), guarded by the bench's
   mtp section, and the partition exchange (conduit rings and inbox
   timers), guarded by bench/parallel.exe's words per event; and time,
   whose [tx_time] runs once per packet per link.  Matching
   is by module basename so a future move (say lib/netsim/link.ml ->
   lib/datapath/link.ml) keeps the rule. *)
let default =
  { hot_modules =
      [ "eventqueue"; "sim"; "time"; "link"; "qdisc"; "switch"; "wire";
        "pktring"; "packet"; "node"; "routing"; "cc"; "pathlet";
        "mtp_switch"; "endpoint"; "partition"; "host"; "tcp" ];
    d001_dirs = [ "lib"; "bin" ];
    t201_dirs = [ "lib"; "bin" ];
    t201_exempt_dirs = [ "lib/telemetry" ];
    rng_modules = [ "rng" ];
    (* M001, and the interfaces U101/U102 check. *)
    mli_dirs = [ "lib" ];
    spawn_spec =
      [ { s_path = [ "Domain"; "spawn" ]; s_main_labels = [] };
        { s_path = [ "Pool"; "map" ]; s_main_labels = [] };
        { s_path = [ "Epoch"; "run" ]; s_main_labels = [ "exchange" ] };
        { s_path = [ "Exp_common"; "job" ]; s_main_labels = [ "commit" ] } ];
    guard_path = [ "Ctx"; "on" ];
    (* Commit-side surfaces that must stay off worker domains: the
       telemetry singleton's mutators and exporters, and Exp_common's
       main-domain result sinks. *)
    offmain_forbidden =
      [ [ "Telemetry"; "Registry" ];
        [ "Telemetry"; "Export" ];
        [ "Telemetry"; "Events"; "emit" ];
        [ "Telemetry"; "Ctx"; "enable" ];
        [ "Telemetry"; "Ctx"; "disable" ];
        [ "Telemetry"; "Ctx"; "reset" ];
        [ "Telemetry"; "Ctx"; "mark_run" ];
        [ "Exp_common"; "print" ];
        [ "Exp_common"; "write_csv" ] ];
    (* Allocators of non-atomic shared-mutable cells for P101.  Atomic,
       Mutex and Condition are deliberately absent (they are the
       sanctioned synchronization vocabulary), as are arrays: the
       single-writer-slot array published by Domain.join is the pool's
       audited idiom, and the issue-listed containers are the ones that
       corrupt on unsynchronized concurrent use. *)
    mutable_creators =
      [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Buffer"; "create" ];
        [ "Queue"; "create" ]; [ "Stack"; "create" ] ] }

let basename_no_ext file =
  let b = Filename.basename file in
  match Filename.chop_suffix_opt b ~suffix:".ml" with
  | Some m -> m
  | None -> ( match Filename.chop_suffix_opt b ~suffix:".mli" with
              | Some m -> m
              | None -> b)

let in_dir file dir =
  file = dir || String.length file > String.length dir
               && String.sub file 0 (String.length dir + 1) = dir ^ "/"

let in_dirs file dirs = List.exists (in_dir file) dirs

let is_hot t file = List.mem (basename_no_ext file) t.hot_modules
let is_rng t file = List.mem (basename_no_ext file) t.rng_modules
let d001_applies t file = in_dirs file t.d001_dirs

let t201_applies t file =
  in_dirs file t.t201_dirs && not (in_dirs file t.t201_exempt_dirs)

let mli_required t file = in_dirs file t.mli_dirs

type rule_doc = { id : string; summary : string }

let rules =
  [ { id = "D001";
      summary =
        "iter/fold over Hashtbl or a Hashtbl.Make/MakeSeeded table visit \
         bindings in hash order; in behavior-affecting modules \
         collect-and-sort (then pragma the fold) or iterate keyed" };
    { id = "D002";
      summary =
        "wall clock (Sys.time, Unix.gettimeofday/time), ambient randomness \
         (Random.* outside Engine.Rng, Random.self_init anywhere) and \
         Domain.self ()-dependent branching break seeded, \
         scheduling-independent replay" };
    { id = "D003";
      summary =
        "float equality (=, <>, ==, !=) against a float literal is \
         representation-fragile; compare with an ordering or pragma an \
         intentional exact sentinel" };
    { id = "H101";
      summary =
        "allocation hazard in a hot-path module (Printf.*, @ / \
         List.append, ^ string concat, closure-capturing Fun \
         combinators) outside an error-raise argument" };
    { id = "T201";
      summary =
        "Telemetry.Events.emit / Telemetry.Registry.* call outside an \
         [if Telemetry.Ctx.on () then ...] guard branch" };
    { id = "M001";
      summary = "every lib/ module must ship an .mli" };
    { id = "P101";
      summary =
        "non-Atomic mutable state (ref, mutable record, \
         Hashtbl/Buffer/Queue/Stack) captured by a Domain.spawn / \
         Runner.Pool / Runner.Epoch worker entry, or module-scope \
         mutable state read or written by worker-reachable code" };
    { id = "P102";
      summary =
        "main-domain-only API (Telemetry Registry/Export/emit, \
         Ctx mutators, Exp_common commit side) reachable from a worker \
         entry point outside an [if Telemetry.Ctx.on () then] branch" };
    { id = "H102";
      summary =
        "function outside the hot set that allocates (H101 \
         hazard) and is transitively reachable from hot-path code \
         outside guard branches and raise arguments" };
    { id = "H103";
      summary =
        "hot-module call passing an optional argument with ~x: \
         (the typer boxes the value in Some on every call); ?x: \
         pass-through is fine" };
    { id = "H104";
      summary =
        "polymorphic compare or hash in a hot module: Stdlib.min/max, \
         compare/=/<>/</>/<=/>= at a type the compiler does not specialise \
         (not int, char, immediate, float, string, bytes, int32, int64 or \
         nativeint, and no constant constructor under =/<>), generic \
         Hashtbl find/find_opt/mem/add/replace/remove, List.mem/assoc" };
    { id = "U101";
      summary =
        "top-level val of a lib/ interface that no other \
         compilation unit references (tests, examples and benches \
         count): delete it, or drop it from the interface" };
    { id = "U102";
      summary =
        "optional parameter of an exported lib/ function that no \
         application passes (~x: or ?x); a function escaping as a value \
         uses all its parameters" } ]

let known_rule id = List.exists (fun r -> r.id = id) rules
