(* mtpbench: the repository benchmark.

   Five workloads (Workloads.all), each timed untraced in a fresh child
   process per repetition, plus a separate traced pass that wraps the
   layers from outside (Span) for per-layer counts and self times.
   Every run checks the simulation: identical digests traced and
   untraced, and at jobs 1 and 2; packet conservation on every device;
   and the pinned digests (bench/suite/README.md lists the checks).

     mtpbench.exe [--workload W,...] [--seed N] [--seconds S] [--json] [--smoke]
       Both passes for each workload; a table, or one JSON document.
     mtpbench.exe --workload W --seed N --seconds S --trace 0|1
       One pass; the last line of stdout is
       {"correct", "attempted", "failed", "metrics"}.

   Exit status: 0 when every check passes, 1 when one fails, 2 on a
   usage error. *)

let word_bytes = Sys.word_size / 8

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Child: one repetition of one workload, reported as "key value" lines. *)

let layer_names = [| "qdisc"; "routing"; "rx"; "send" |]

(* Set-up samples per untraced child, taken after the run, each on a
   freshly collected heap.  The child's first (cold) set-up is not one
   of them: its page faults make it vary by a third from process to
   process. *)
let setups_per_child = 3
let warm_batch_s = 0.02

let run_child (spec : Workloads.spec) size ~seed ~traced ~jobs =
  let w = spec.Workloads.setup size ~seed ~traced in
  Array.iter Span.reset w.Workloads.spans;
  let t1 = Span.clock () in
  let g0 = Gc.quick_stat () in
  let c0 = Unix.times () in
  w.Workloads.run ~jobs;
  let t2 = Span.clock () in
  let c1 = Unix.times () in
  (* Totals over every domain the run used (Gc.minor_words is per
     domain). *)
  let g1 = Gc.quick_stat () in
  let out fmt = Printf.printf (fmt ^^ "\n") in
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let maxi f a = Array.fold_left (fun acc x -> max acc (f x)) 0 a in
  let obs = w.Workloads.obs in
  let events = Array.map Engine.Sim.events_processed w.Workloads.sims in
  let qd f l = f (Netsim.Link.qdisc l) () in
  let failures = Workloads.ledger_failures w in
  List.iter (Printf.eprintf "ledger: %s\n") failures;
  out "digest %s" (Workloads.digest w);
  out "ledger_failures %d" (List.length failures);
  out "wall_s %.17g" (t2 -. t1);
  out "cpu_s %.17g"
    (c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime -. c0.Unix.tms_stime);
  out "minor_words %.17g" (g1.Gc.minor_words -. g0.Gc.minor_words);
  out "promoted_words %.17g" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  out "minor_collections %d" (g1.Gc.minor_collections - g0.Gc.minor_collections);
  out "major_collections %d" (g1.Gc.major_collections - g0.Gc.major_collections);
  out "top_heap_words %d" g1.Gc.top_heap_words;
  out "duration_ns %d" w.Workloads.duration;
  out "offered %d" (sum (fun o -> o.Workloads.offered) obs);
  out "completed %d" (sum (fun o -> o.Workloads.completed) obs);
  out "payload %d" (sum (fun o -> o.Workloads.payload) obs);
  (* Every sample, exactly (the model's time unit is 1 ns): the parent
     pools them over repetitions. *)
  out "lat_us %s"
    (String.concat " "
       (List.concat_map
          (fun o ->
            List.map (Printf.sprintf "%.3f") (Array.to_list (Stats.Summary.samples o.Workloads.lat)))
          (Array.to_list obs)));
  out "events %d" (Array.fold_left ( + ) 0 events);
  out "events_imbalance %.17g"
    (float_of_int (Array.fold_left max 0 events)
    *. float_of_int (Array.length events)
    /. float_of_int (max 1 (Array.fold_left ( + ) 0 events)));
  out "parts %d" (Array.length events);
  out "pending_max %d" (maxi (fun o -> o.Workloads.pending_max) obs);
  out "hops %d" (sum Netsim.Link.delivered_pkts w.Workloads.links);
  out "qdisc_drops %d" (sum (qd (fun q -> q.Netsim.Qdisc.drops)) w.Workloads.links);
  out "qdisc_marks %d" (sum (qd (fun q -> q.Netsim.Qdisc.marks)) w.Workloads.links);
  out "fault_drops %d" (sum Netsim.Link.fault_drops w.Workloads.links);
  out "switch_received %d" (sum Netsim.Switch.received w.Workloads.switches);
  out "switch_dropped %d" (sum Netsim.Switch.dropped w.Workloads.switches);
  let fresh, reused =
    match w.Workloads.pool with Some p -> Netsim.Packet.pool_stats p | None -> (0, 0)
  in
  out "pool_fresh %d" fresh;
  out "pool_reused %d" reused;
  out "retransmits %d"
    (sum
       (fun s -> (Netsim.Transport_intf.stats s).Netsim.Transport_intf.retransmits)
       w.Workloads.stacks);
  let mtp = w.Workloads.mtp in
  out "timeouts %d" (sum Mtp.Endpoint.timeouts mtp);
  out "active_max %d" (maxi (fun o -> o.Workloads.active_max) obs);
  out "acks_sent %d" (sum Mtp.Endpoint.acks_sent mtp);
  out "nacks %d" (sum Mtp.Endpoint.nacks_received mtp);
  out "pathlets %d"
    (sum (fun ep -> List.length (Mtp.Pathlet.known (Mtp.Endpoint.pathlets ep))) mtp);
  if traced then begin
    let s = Span.merge w.Workloads.spans in
    Array.iteri
      (fun l name ->
        out "self_%s %.17g" name s.Span.self_s.(l);
        out "calls_%s %d" name s.Span.calls.(l))
      layer_names;
    out "bursts %d" s.Span.bursts;
    out "span_depth %d" s.Span.depth;
    out "top_level_s %.17g" (Span.top_level_s s)
  end;
  (* Last, once the heap figures above are taken.  A warm sample is a
     batch of set-ups lasting at least [warm_batch_s], so that a set-up
     of a few microseconds is still timed well past the clock's 1 us
     resolution. *)
  let warm () =
    Gc.full_major ();
    let t = Span.clock () in
    let rec batch n =
      ignore (Sys.opaque_identity (spec.Workloads.setup size ~seed ~traced:false));
      let dt = Span.clock () -. t in
      if dt >= warm_batch_s then dt /. float_of_int n else batch (n + 1)
    in
    batch 1
  in
  if not traced then begin
    out "setup_s %.17g" (median (List.init setups_per_child (fun _ -> warm ())));
    out "ref_s %.17g" (Host_speed.sample ())
  end

(* ------------------------------------------------------------------ *)
(* Parent: spawns children and turns their reports into metrics. *)

type sample = (string * string) list

exception Child_failed of string

let child_args ~name ~size ~seed ~traced ~jobs =
  [ "--child"; name; "--seed"; string_of_int seed; "--jobs"; string_of_int jobs ]
  @ (if traced then [ "--traced" ] else [])
  @ if size = Workloads.Smoke then [ "--smoke" ] else []

let spawn args : sample =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read acc =
    match input_line ic with
    | line -> (
      match String.index_opt line ' ' with
      | Some i ->
        read ((String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)) :: acc)
      | None -> read acc)
    | exception End_of_file -> List.rev acc
  in
  let kv = read [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> kv
  | _ -> raise (Child_failed (String.concat " " args))

let str (s : sample) k =
  match List.assoc_opt k s with
  | Some v -> v
  | None -> raise (Child_failed ("missing " ^ k))

let num s k = float_of_string (str s k)

type run = {
  mutable errors : string list;
  mutable attempted : int;
}

let check r cond fmt =
  Printf.ksprintf (fun msg -> if not cond then r.errors <- msg :: r.errors) fmt

let pin_for size name =
  List.assoc_opt name (if size = Workloads.Smoke then Pins.smoke else Pins.full)

(* Checks every child report must pass: conservation, and the pin. *)
let check_sample r (spec : Workloads.spec) size ~seed what s =
  let d = str s "digest" in
  check r (str s "ledger_failures" = "0") "%s %s: packet conservation violated" spec.name what;
  if seed = Pins.seed then
    match pin_for size spec.name with
    | Some pin -> check r (d = pin) "%s %s: digest %s differs from the pinned %s" spec.name what d pin
    | None -> check r false "%s: no pinned digest (this run: %s)" spec.name d

let same_digest r (spec : Workloads.spec) a what_a b what_b =
  check r (str a "digest" = str b "digest") "%s: %s digest %s differs from %s digest %s" spec.name
    what_a (str a "digest") what_b (str b "digest")

(* Repeat [f] (given the repetition index) until [seconds] have passed
   and at least [min] times. *)
let repeat ~seconds ~min f =
  let t0 = Span.clock () in
  let rec go acc n =
    if n >= min && Span.clock () -. t0 >= seconds then List.rev acc
    else go (f n :: acc) (n + 1)
  in
  go [] 0

(* Repetition [rep] of a run measures its own inputs, derived from the
   run's seed (repetition 0 uses the seed itself), so a run's medians
   average over inputs as well as over host noise. *)
let input_seed seed rep =
  if rep = 0 then seed else Engine.Rng.as_seed (Engine.Rng.derive (Engine.Rng.create seed) rep)

(* Whatever the seed, the pinned small run must still match, so a
   change to the model fails every run, not only seed 42's. *)
let pinned_smoke (spec : Workloads.spec) =
  let r = { errors = []; attempted = 0 } in
  let s =
    spawn
      (child_args ~name:spec.name ~size:Workloads.Smoke ~seed:Pins.seed ~traced:false
         ~jobs:spec.jobs)
  in
  check_sample r spec Workloads.Smoke ~seed:Pins.seed "pinned smoke run" s;
  (r, [], [])

type metric = { name : string; unit_ : string; value : float }

let end_to_end_units =
  [ ("wall_s", "s"); ("setup_s", "s"); ("hops_per_s", "1/s"); ("minor_words_per_hop", "words");
    ("peak_heap_mb", "MB"); ("sim_goodput_gbps", "Gbps"); ("sim_lat_p50_us", "us");
    ("sim_lat_p99_us", "us"); ("ops_failed_frac", "frac") ]

(* Untraced pass: end-to-end metrics, medians over repetitions.  The
   metrics that do not depend on the host's speed (allocation, heap and
   the simulated ones) come from the first [min_reps] repetitions only,
   so they are a function of the seed however many repetitions fit. *)
let untraced (spec : Workloads.spec) size ~seed ~seconds ~min_reps =
  let r = { errors = []; attempted = 0 } in
  let child ~seed ~jobs = spawn (child_args ~name:spec.name ~size ~seed ~traced:false ~jobs) in
  let reps =
    repeat ~seconds ~min:min_reps (fun i ->
        let seed = input_seed seed i in
        let s = child ~seed ~jobs:spec.jobs in
        check_sample r spec size ~seed (Printf.sprintf "rep %d" i) s;
        r.attempted <- r.attempted + int_of_float (num s "offered");
        s)
  in
  if spec.jobs > 1 then
    same_digest r spec (List.hd reps) (Printf.sprintf "jobs=%d" spec.jobs) (child ~seed ~jobs:1)
      "jobs=1";
  let first = List.filteri (fun i _ -> i < min_reps) reps in
  let med f = median (List.map f reps) in
  let fixed f = median (List.map f first) in
  (* Latency percentiles pool the samples of those repetitions, so the
     p99 has tens of samples beyond it even on failover-mtp. *)
  let lat = Stats.Summary.create () in
  List.iter
    (fun s ->
      List.iter
        (fun x -> if x <> "" then Stats.Summary.add lat (float_of_string x))
        (String.split_on_char ' ' (str s "lat_us")))
    first;
  let pct p = if Stats.Summary.count lat = 0 then nan else Stats.Summary.percentile lat p in
  (* Host times, scaled to the nominal host speed by the fixed work each
     child timed after its run (Host_speed). *)
  let speed = Host_speed.nominal_s /. med (fun s -> num s "ref_s") in
  let values =
    [ med (fun s -> num s "wall_s") *. speed;
      med (fun s -> num s "setup_s") *. speed;
      med (fun s -> num s "hops" /. num s "wall_s") /. speed;
      fixed (fun s -> num s "minor_words" /. num s "hops");
      fixed (fun s -> num s "top_heap_words" *. float_of_int word_bytes /. 1048576.0);
      fixed (fun s -> num s "payload" *. 8.0 /. num s "duration_ns");
      pct 50.0;
      pct 99.0;
      fixed (fun s -> (num s "offered" -. num s "completed") /. num s "offered") ]
  in
  let metrics =
    List.map2 (fun (name, unit_) value -> { name; unit_; value }) end_to_end_units values
  in
  ( r,
    metrics,
    [ ("repetitions", List.length reps);
      ("latency samples pooled", Stats.Summary.count lat) ] )

let per_layer_units =
  [ ("sim.events", "count"); ("sim.pending_max", "count"); ("sim.self_s", "s");
    ("sim.ns_per_event", "ns"); ("qdisc.calls", "count"); ("qdisc.self_s", "s");
    ("qdisc.burst_share", "frac"); ("qdisc.drops", "count"); ("qdisc.marks", "count");
    ("switch.received", "count"); ("switch.dropped", "count"); ("routing.calls", "count");
    ("routing.self_s", "s"); ("routing.ns_per_call", "ns"); ("link.hops", "count");
    ("link.fault_drops", "count"); ("pool.fresh", "count"); ("pool.reused", "count");
    ("stack.rx_calls", "count"); ("stack.rx_self_s", "s"); ("stack.rx_ns_per_pkt", "ns");
    ("stack.send_calls", "count"); ("stack.send_self_s", "s"); ("stack.retransmits", "count");
    ("stack.timeouts", "count"); ("mtp.active_max", "count"); ("mtp.acks_sent", "count");
    ("mtp.nacks", "count"); ("mtp.pathlets", "count"); ("partition.parts", "count");
    ("partition.events_imbalance", "ratio"); ("partition.j1_s", "s");
    ("partition.speedup", "x"); ("partition.cpu_s", "s"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("gc.promoted_words", "words");
    ("trace.overhead", "frac") ]

(* Traced pass: per-layer metrics.  Each round runs the workload
   untraced at its own width, traced at jobs = 1 (so self times add up
   to the wall time), and, for a parallel workload, untraced at
   jobs = 1 as well (the speedup and tracing-overhead baseline). *)
let traced (spec : Workloads.spec) size ~seed ~seconds =
  let r = { errors = []; attempted = 0 } in
  let child ~traced ~jobs = spawn (child_args ~name:spec.name ~size ~seed ~traced ~jobs) in
  let rounds =
    repeat ~seconds ~min:1 (fun _ ->
        let u = child ~traced:false ~jobs:spec.jobs in
        let t = child ~traced:true ~jobs:1 in
        let u1 = if spec.jobs > 1 then child ~traced:false ~jobs:1 else u in
        (u, t, u1))
  in
  List.iter
    (fun (u, t, u1) ->
      check_sample r spec size ~seed "untraced" u;
      check_sample r spec size ~seed "traced" t;
      same_digest r spec u "untraced" t "traced";
      same_digest r spec u "jobs=2" u1 "jobs=1";
      (* sim.self_s is the remainder, so self times and sim.self_s add
         up to wall_s by construction; what can fail is the nesting,
         and spans escaping the measured window. *)
      check r (str t "span_depth" = "0") "%s: spans left open after the run" spec.name;
      check r
        (num t "top_level_s" <= num t "wall_s")
        "%s: spans cover %.3f s of a %.3f s run" spec.name (num t "top_level_s") (num t "wall_s");
      r.attempted <- r.attempted + int_of_float (num t "offered"))
    rounds;
  let _, t, _ = List.hd rounds in
  let med f = median (List.map f rounds) in
  let count k = num t k in
  let self l (_, t, _) = num t ("self_" ^ l) in
  let ns_per l (_, t, _) = num t ("self_" ^ l) *. 1e9 /. Float.max 1.0 (num t ("calls_" ^ l)) in
  let sim_self (_, t, _) = num t "wall_s" -. num t "top_level_s" in
  let calls l = count ("calls_" ^ l) in
  let values =
    [ count "events";
      count "pending_max";
      med sim_self;
      med (fun ((_, t, _) as x) -> sim_self x *. 1e9 /. num t "events");
      calls "qdisc";
      med (self "qdisc");
      count "bursts" /. Float.max 1.0 (calls "qdisc");
      count "qdisc_drops";
      count "qdisc_marks";
      count "switch_received";
      count "switch_dropped";
      calls "routing";
      med (self "routing");
      med (ns_per "routing");
      count "hops";
      count "fault_drops";
      count "pool_fresh";
      count "pool_reused";
      calls "rx";
      med (self "rx");
      med (ns_per "rx");
      calls "send";
      med (self "send");
      count "retransmits";
      count "timeouts";
      count "active_max";
      count "acks_sent";
      count "nacks";
      count "pathlets";
      count "parts";
      count "events_imbalance";
      med (fun (_, _, u1) -> num u1 "wall_s");
      med (fun (u, _, u1) -> num u1 "wall_s" /. num u "wall_s");
      med (fun (u, _, _) -> num u "cpu_s");
      med (fun (u, _, _) -> num u "minor_collections");
      med (fun (u, _, _) -> num u "major_collections");
      med (fun (u, _, _) -> num u "promoted_words");
      med (fun (_, t, u1) -> (num t "wall_s" /. num u1 "wall_s") -. 1.0) ]
  in
  let metrics =
    List.map2 (fun (name, unit_) value -> { name; unit_; value }) per_layer_units values
  in
  (r, metrics, [ ("rounds", List.length rounds) ])

(* ------------------------------------------------------------------ *)
(* Output. *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit_)
       ms)

let print_table (spec : Workloads.spec) ~seed title ms notes =
  Printf.printf "== %s  %s  (seed %d) ==\n" spec.name title seed;
  List.iter (fun m -> Printf.printf "  %-28s %16.6g %s\n" m.name m.value m.unit_) ms;
  List.iter (fun (k, v) -> Printf.printf "  (%s: %d)\n" k v) notes

(* The names and units this program prints must be the ones the
   benchmark manifest declares, in its order and with no others: each
   entry appears as written below, and "name" occurs once per workload
   and metric. *)
let check_manifest r path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> check r false "cannot read %s: %s" path e
  | text ->
    let find_from i sub =
      let n = String.length sub in
      let rec go i =
        if i + n > String.length text then None
        else if String.sub text i n = sub then Some (i + n)
        else go (i + 1)
      in
      go i
    in
    let rec occurrences i sub =
      match find_from i sub with Some j -> 1 + occurrences j sub | None -> 0
    in
    let entries =
      List.map (fun (s : Workloads.spec) -> Printf.sprintf "{\"name\": %S, \"why\": " s.name)
        Workloads.all
      @ List.map
          (fun (name, unit_) -> Printf.sprintf "{\"name\": %S, \"unit\": %S" name unit_)
          (end_to_end_units @ per_layer_units)
    in
    ignore
      (List.fold_left
         (fun i entry ->
           match find_from i entry with
           | Some j -> j
           | None ->
             check r false "%s: no %s... after the entries before it" path entry;
             i)
         0 entries);
    check r
      (occurrences 0 "\"name\":" = List.length entries)
      "%s declares other workloads or metrics than this program" path

(* ------------------------------------------------------------------ *)
(* Command line. *)

let usage = "mtpbench.exe [--workload W,...] [--seed N] [--seconds S] [--trace 0|1] [--json] [--smoke]"

(* BENCHMARK.json's run_seconds. *)
let run_seconds = 15.0

let () =
  let only = ref [] and seed = ref Pins.seed and seconds = ref (-1.0) in
  let trace = ref (-1) and json = ref false and smoke = ref false in
  let child = ref "" and traced_child = ref false and jobs = ref 1 in
  Arg.parse
    [ ("--workload", Arg.String (fun s -> only := !only @ String.split_on_char ',' s),
       "W,... workloads to run (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per pass (default 15, smoke 0)");
      ("--trace", Arg.Set_int trace, "0|1 run only the untraced (0) or traced (1) pass");
      ("--json", Arg.Set json, " print one JSON document instead of tables");
      ("--smoke", Arg.Set smoke, " 1/50-size workloads with their own pins");
      ("--child", Arg.Set_string child, "W (internal) run one repetition");
      ("--traced", Arg.Set traced_child, " (internal) child runs traced");
      ("--jobs", Arg.Set_int jobs, "N (internal) child domains") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let size = if !smoke then Workloads.Smoke else Workloads.Full in
  let lookup name =
    match Workloads.find name with
    | Some s -> s
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun (s : Workloads.spec) -> s.name) Workloads.all));
      exit 2
  in
  if !child <> "" then run_child (lookup !child) size ~seed:!seed ~traced:!traced_child ~jobs:!jobs
  else begin
    let specs = if !only = [] then Workloads.all else List.map lookup !only in
    (* --trace prints one workload's metrics, keyed by name alone. *)
    if !trace < -1 || !trace > 1 || (!trace >= 0 && List.length specs <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    let seconds = if !seconds >= 0.0 then !seconds else if !smoke then 0.0 else run_seconds in
    let min_reps = if !smoke then 1 else 5 in
    let r = { errors = []; attempted = 0 } in
    if !smoke then check_manifest r "BENCHMARK.json";
    let results =
      List.map
        (fun (spec : Workloads.spec) ->
          let pass p =
            try
              let pr, ms, notes = p () in
              r.errors <- pr.errors @ r.errors;
              r.attempted <- r.attempted + pr.attempted;
              (ms, notes)
            with Child_failed what ->
              r.errors <- Printf.sprintf "%s: child failed (%s)" spec.name what :: r.errors;
              ([], [])
          in
          if not (!smoke && !seed = Pins.seed) then ignore (pass (fun () -> pinned_smoke spec));
          let e2e =
            if !trace = 1 then ([], [])
            else pass (fun () -> untraced spec size ~seed:!seed ~seconds ~min_reps)
          in
          let layers =
            if !trace = 0 then ([], []) else pass (fun () -> traced spec size ~seed:!seed ~seconds)
          in
          (spec, e2e, layers))
        specs
    in
    let ok = r.errors = [] in
    List.iter (Printf.eprintf "FAIL: %s\n") (List.rev r.errors);
    if !trace >= 0 then begin
      let ms = List.concat_map (fun (_, (e, _), (l, _)) -> e @ l) results in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" ok
        (max 1 r.attempted)
        (if ok then 0 else max 1 r.attempted)
        (json_metrics ms)
    end
    else if !json then
      Printf.printf "{\"seed\": %d, \"correct\": %b, \"workloads\": {%s}}\n" !seed ok
        (String.concat ", "
           (List.map
              (fun ((spec : Workloads.spec), (e, _), (l, _)) ->
                Printf.sprintf "%S: {\"end_to_end\": {%s}, \"per_layer\": {%s}}" spec.name
                  (json_metrics e) (json_metrics l))
              results))
    else begin
      List.iter
        (fun ((spec : Workloads.spec), (e, en), (l, ln)) ->
          print_table spec ~seed:!seed "end to end (untraced)" e en;
          print_table spec ~seed:!seed "per layer (traced pass)" l ln)
        results;
      print_endline (if ok then "correct: all checks passed" else "correct: FAILED")
    end;
    exit (if ok then 0 else 1)
  end
