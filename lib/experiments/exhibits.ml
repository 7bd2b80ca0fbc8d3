(* One declaration per exhibit: each flag names the config field it
   sets, and its default is read from the exhibit's [default] through
   [get], so no default is written twice.  The smoke configs that
   differ from the defaults are built here, once. *)

type unit_ = One | Us | Ms | Kb | Mb

let scale = function One -> 1 | Us | Kb -> 1_000 | Ms | Mb -> 1_000_000

type _ kind =
  | Int : { lo : int; unit : unit_; hi : int } -> int kind
  | Fraction : float kind
  | Any_int : int kind
  | Enum : (string * 'v) list -> 'v kind

type 'c flag =
  | Flag : {
      name : string; doc : string; kind : 'v kind;
      get : 'c -> 'v; set : 'v -> 'c -> 'c } -> 'c flag

type t =
  | Exhibit : {
      name : string; doc : string; default : 'c; smoke : 'c;
      flags : 'c flag list; check : 'c -> (unit, string) result;
      jobs : jobs:int -> emit:(Exp_common.result -> unit) -> 'c ->
        Exp_common.job list } -> t

let flag name doc kind get set = Flag { name; doc; kind; get; set }

(* A count has no cap.  A scaled time or size stays below max_int / 4,
   so a fault time plus a detection delay cannot overflow.  A message
   size fits the MTP header's u32 msg_len (Wire.encode). *)
let count lo = Int { lo; unit = One; hi = max_int }
let scaled lo unit = Int { lo; unit; hi = max_int / 4 }
let msg_size unit = Int { lo = 1; unit; hi = 0xFFFF_FFFF }

let duration get set =
  flag "duration-ms" "Simulated duration in milliseconds." (scaled 0 Ms) get
    set

let exhibit ?smoke ?(check = fun _ -> Ok ()) name doc default flags jobs =
  let smoke = Option.value smoke ~default in
  Exhibit { name; doc; default; smoke; flags; check; jobs }

(* A one-job grid around an exhibit's [result]. *)
let one result ~jobs:_ ~emit config =
  [ Exp_common.job (fun () -> result config) ~commit:emit ]

(* The largest fabric guarded is BENCH_engine.json's 4096-host scale
   point; bigger ones can exhaust memory while the topology is built.
   [n] is a float so that products of huge values cannot overflow. *)
let fabric ~what n =
  if n > 4096.0 then
    Error (Printf.sprintf "%s = %.0f, above the 4096-host cap" what n)
  else Ok ()

let table1 =
  exhibit "table1" "Transport feature matrix with live demos" () []
    (one Table1_features.result)

let fig2 =
  let open Fig2_proxy in
  exhibit "fig2" "TCP termination: proxy buffering vs HOL blocking" default
    [ duration (fun c -> c.duration) (fun v c -> { c with duration = v });
      flag "rwnd-kb" "Receive-window cap (KB) of the limited variant."
        (scaled 1 Kb) (fun c -> c.rwnd_limit)
        (fun v c -> { c with rwnd_limit = v }) ]
    (one (fun config -> result ~config ()))

let fig3 =
  let open Fig3_one_rpf in
  exhibit "fig3" "One request per flow breaks congestion control" default
    ~check:(fun c -> fabric ~what:"2 x --hosts" (2.0 *. float_of_int c.hosts))
    [ duration (fun c -> c.duration) (fun v c -> { c with duration = v });
      flag "hosts" "Sender/receiver pairs; 2 x N hosts, at most 4096."
        (count 1) (fun c -> c.hosts) (fun v c -> { c with hosts = v });
      flag "chains" "Concurrent message chains per host." (count 1)
        (fun c -> c.chains_per_host)
        (fun v c -> { c with chains_per_host = v }) ]
    (one (fun config -> result ~config ()))

let fig5 =
  let open Fig5_multipath in
  exhibit "fig5" "Multipath congestion control under path alternation" default
    [ duration (fun c -> c.duration) (fun v c -> { c with duration = v });
      flag "flip-us" "Path alternation period (us)." (scaled 1 Us)
        (fun c -> c.flip_interval)
        (fun v c -> { c with flip_interval = v }) ]
    (one (fun config -> result ~config ()))

(* Of the exhibits only fig6 draws random numbers (message arrivals and
   sizes), so only it takes a seed. *)
let fig6 =
  let open Fig6_loadbalance in
  exhibit "fig6" "Load- and request-aware load balancing (tail FCT)" default
    ~smoke:{ default with duration = Engine.Time.ms 20 }
    [ flag "seed" "Seed of the random workload (message arrivals and sizes)."
        Any_int (fun c -> c.seed) (fun v c -> { c with seed = v });
      duration (fun c -> c.duration) (fun v c -> { c with duration = v });
      flag "max-mb"
        "Cap (MB) on the 10KB-1GB skewed size mix; raise toward 1000 for \
         the paper's full range (slow)."
        (msg_size Mb) (fun c -> c.max_message)
        (fun v c -> { c with max_message = v });
      flag "load" "Offered load fraction." Fraction (fun c -> c.load)
        (fun v c -> { c with load = v }) ]
    (one (fun config -> result ~config ()))

let fig7 =
  let open Fig7_isolation in
  exhibit "fig7" "Per-entity isolation on a shared queue" default
    [ duration (fun c -> c.duration) (fun v c -> { c with duration = v });
      flag "tenant2-sources" "Tenant 2's source count (paper: 8x)." (count 1)
        (fun c -> c.tenant2_sources)
        (fun v c -> { c with tenant2_sources = v }) ]
    (one (fun config -> result ~config ()))

(* Eight independent exhibits, one job each. *)
let extensions =
  exhibit "extensions"
    "Ablations and section-4 discussion experiments: pathlet granularity, \
     multi-algorithm CC, NDP trimming, path exclusion, header overhead, \
     TCP coexistence"
    () []
    (fun ~jobs:_ ~emit () ->
      List.map
        (fun result -> Exp_common.job result ~commit:emit)
        [ Ablation_pathlets.result; Ablation_algorithms.result;
          Ablation_trimming.result; Ablation_exclusion.result;
          Ablation_acks.result; Header_overhead.result; Coexistence.result;
          Ext_leafspine.result ])

let messaging =
  let open Ext_messaging in
  exhibit "messaging"
    "Drive TCP, DCTCP, UDP, proxied TCP and MTP through the unified \
     transport interface on identical workloads"
    default
    [ duration (fun c -> c.duration) (fun v c -> { c with duration = v });
      flag "msg-bytes" "Message size in bytes." (msg_size One)
        (fun c -> c.msg_size) (fun v c -> { c with msg_size = v });
      flag "parallel" "Concurrent closed-loop chains." (count 1)
        (fun c -> c.parallel) (fun v c -> { c with parallel = v }) ]
    (one (fun config -> result ~config ()))

(* One job per scheme; the barrier emits the assembled result. *)
let failover =
  let open Ext_failover in
  exhibit "failover"
    "Mid-transfer link failure: TCP/DCTCP vs MTP pathlet failover \
     (recovery time and goodput dip)"
    default ~smoke
    [ duration (fun c -> c.duration) (fun v c -> { c with duration = v });
      flag "fail-ms" "Path A failure time (ms)." (scaled 0 Ms)
        (fun c -> c.t_fail) (fun v c -> { c with t_fail = v });
      flag "detect-ms" "Routing reconvergence delay (ms)." (scaled 0 Ms)
        (fun c -> c.detect) (fun v c -> { c with detect = v });
      flag "restore-ms" "Path A restoration time (ms)." (scaled 0 Ms)
        (fun c -> c.t_restore) (fun v c -> { c with t_restore = v }) ]
    (fun ~jobs:_ ~emit config ->
      jobs ~config ~emit:(fun o -> emit (assemble config o)) ())

(* Both sweeps in one grid: every (point, replication) cell is its own
   job, so no worker idles behind a monolithic sweep.  Only the fig6
   sweep is seeded, so only it takes replications. *)
let sweeps =
  let open Sweeps in
  exhibit "sweeps"
    "Parameter sweeps: Fig 5 vs alternation frequency, Fig 6 vs offered load"
    default
    ~smoke:
      { default with
        fig5_duration = Engine.Time.ms 2; fig6_duration = Engine.Time.ms 16 }
    [ flag "reps"
        "Replications per fig6 sweep point under seeds derived per point \
         (rows report per-point means; parallel jobs, see --jobs).  The \
         fig5 sweep draws no random numbers and runs once."
        (count 1) (fun c -> c.reps) (fun v c -> { c with reps = v }) ]
    (fun ~jobs:_ ~emit { reps; fig5_duration; fig6_duration } ->
      fig5_sweep_jobs ~duration:fig5_duration
        ~emit:(fun rows -> emit (fig5_rows_result rows)) ()
      @ fig6_sweep_jobs ~reps ~duration:fig6_duration
          ~emit:(fun rows -> emit (fig6_rows_result ~reps rows)) ())

let incast =
  let open Ext_incast in
  let check c =
    let nhosts = c.k * c.k * c.k / 4 in
    if c.k mod 2 <> 0 then Error "--k must be even"
    else
      Result.bind
        (fabric ~what:"k^3/4 hosts" (float_of_int c.k ** 3.0 /. 4.0))
        (fun () ->
          if c.fanout < nhosts then Ok ()
          else
            Error
              (Printf.sprintf "--fanout must be in 1..%d for k=%d" (nhosts - 1)
                 c.k))
  in
  exhibit "incast"
    "Incast/RPC fan-out on a k-ary fat-tree: every responder answers at t=0 \
     and TCP, DCTCP and MTP race to collect the fan-in (tail FCT and \
     collect time)"
    default ~smoke ~check
    [ duration (fun c -> c.duration) (fun v c -> { c with duration = v });
      flag "k" "Fat-tree arity (even); k^3/4 hosts, at most 4096." (count 2)
        (fun c -> c.k) (fun v c -> { c with k = v });
      flag "fanout" "Responders answering the aggregator." (count 1)
        (fun c -> c.fanout) (fun v c -> { c with fanout = v });
      flag "resp-kb" "Response size per responder (KB)." (msg_size Kb)
        (fun c -> c.resp_bytes) (fun v c -> { c with resp_bytes = v }) ]
    (one (fun config -> result ~config ()))

let par_leafspine =
  let open Par_leafspine in
  exhibit "par-leafspine"
    "One large leaf-spine scenario on the partitioned world: per-leaf \
     simulation domains exchange fabric traffic through lookahead-delay \
     conduits with deterministic epoch barriers, so a single scenario uses \
     all --jobs cores with byte-identical output"
    default
    ~check:(fun c ->
      fabric ~what:"--leaves x (--hosts + --spines)"
        (float_of_int c.leaves
        *. (float_of_int c.hosts_per_leaf +. float_of_int c.spines)))
    [ duration (fun c -> c.duration) (fun v c -> { c with duration = v });
      flag "transport" "Transport on every host: $(b,dctcp) or $(b,mtp)."
        (Enum [ ("dctcp", Dctcp); ("mtp", Mtp) ])
        (fun c -> c.transport) (fun v c -> { c with transport = v });
      flag "leaves"
        "Leaf switches (= partitions); >= 2, and leaves x (hosts + spines) \
         at most 4096."
        (count 2) (fun c -> c.leaves) (fun v c -> { c with leaves = v });
      flag "spines" "Spine switches." (count 1) (fun c -> c.spines)
        (fun v c -> { c with spines = v });
      flag "hosts" "Hosts per leaf." (count 1) (fun c -> c.hosts_per_leaf)
        (fun v c -> { c with hosts_per_leaf = v });
      flag "msg-kb" "Message size (KB) of each chain." (msg_size Kb)
        (fun c -> c.message_bytes) (fun v c -> { c with message_bytes = v }) ]
    (fun ~jobs ~emit config ->
      [ Exp_common.job (fun () -> result ~jobs ~config ()) ~commit:emit ])

let all =
  [ table1; fig2; fig3; fig5; fig6; fig7; extensions; messaging; failover;
    sweeps; incast ]
