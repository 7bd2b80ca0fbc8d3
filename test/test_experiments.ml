(* Shape tests for the experiment harnesses: each paper exhibit is run
   at reduced scale and its qualitative claim asserted.  These are the
   "does the reproduction reproduce" tests. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_fig2_shapes () =
  let config =
    { Experiments.Fig2_proxy.default with
      Experiments.Fig2_proxy.duration = Engine.Time.ms 2 }
  in
  let o = Experiments.Fig2_proxy.run ~config () in
  (* Unbounded: buffer grows to many MB, roughly at (front-back). *)
  checkb "unbounded buffer far exceeds bounded" true
    (o.Experiments.Fig2_proxy.unlimited_max_buffer
    > 5 * o.Experiments.Fig2_proxy.limited_max_buffer);
  checkb "growth rate tracks the rate mismatch" true
    (o.Experiments.Fig2_proxy.growth_rate_gbps > 40.0
    && o.Experiments.Fig2_proxy.growth_rate_gbps < 70.0);
  (* Bounded: the 100G client is clamped near the 40G back link. *)
  checkb "client clamped by the window" true
    (o.Experiments.Fig2_proxy.limited_client_gbps < 45.0);
  checkb "unbounded client runs at front rate" true
    (o.Experiments.Fig2_proxy.unlimited_client_gbps > 80.0)

let test_fig3_shapes () =
  let config =
    { Experiments.Fig3_one_rpf.default with
      Experiments.Fig3_one_rpf.duration = Engine.Time.ms 1 }
  in
  let o = Experiments.Fig3_one_rpf.run ~config () in
  checkb "one-rpf wastes most of the link" true
    (o.Experiments.Fig3_one_rpf.one_rpf_mean
    < 0.5 *. o.Experiments.Fig3_one_rpf.persistent_mean);
  checkb "one-rpf is noisier than persistent" true
    (o.Experiments.Fig3_one_rpf.one_rpf_cv
    > o.Experiments.Fig3_one_rpf.persistent_cv);
  checkb "mtp outperforms one-rpf without connections" true
    (o.Experiments.Fig3_one_rpf.mtp_mean
    > 1.5 *. o.Experiments.Fig3_one_rpf.one_rpf_mean)

let test_fig5_shapes () =
  let config =
    { Experiments.Fig5_multipath.default with
      Experiments.Fig5_multipath.duration = Engine.Time.ms 4 }
  in
  let o = Experiments.Fig5_multipath.run ~config () in
  (* The paper reports ~1.33x; we accept anything clearly > 1.15x. *)
  checkb "mtp beats dctcp under path alternation" true
    (o.Experiments.Fig5_multipath.improvement > 1.15);
  (* MTP should track the 55 Gbps time-average of the two paths. *)
  checkb "mtp near the multipath optimum" true
    (o.Experiments.Fig5_multipath.mtp_mean > 45.0)

let test_fig6_shapes () =
  let config =
    { Experiments.Fig6_loadbalance.default with
      Experiments.Fig6_loadbalance.duration = Engine.Time.ms 40;
      max_message = 4_000_000 }
  in
  let o = Experiments.Fig6_loadbalance.run ~config () in
  checkb "spraying reorders (spurious retransmits)" true
    (o.Experiments.Fig6_loadbalance.spray.Experiments.Fig6_loadbalance.retransmits
    > 100);
  checkb "mtp does not retransmit" true
    (o.Experiments.Fig6_loadbalance.mtp.Experiments.Fig6_loadbalance.retransmits
    = 0);
  (* p50/p95 are the robust wins at any scale; p99 lands on the largest
     ~1% of messages, where the SRPT-style sender trades with the
     workload mix (see the load sweep and EXPERIMENTS.md). *)
  checkb "mtp median beats both baselines" true
    (o.Experiments.Fig6_loadbalance.mtp.Experiments.Fig6_loadbalance.fct_p50_us
     < o.Experiments.Fig6_loadbalance.ecmp.Experiments.Fig6_loadbalance
         .fct_p50_us
    && o.Experiments.Fig6_loadbalance.mtp.Experiments.Fig6_loadbalance
         .fct_p50_us
       < o.Experiments.Fig6_loadbalance.spray.Experiments.Fig6_loadbalance
           .fct_p50_us);
  checkb "mtp p95 beats spraying's" true
    (o.Experiments.Fig6_loadbalance.mtp.Experiments.Fig6_loadbalance.fct_p95_us
    < o.Experiments.Fig6_loadbalance.spray.Experiments.Fig6_loadbalance
        .fct_p95_us);
  checkb "all schemes completed the same offered messages" true
    (o.Experiments.Fig6_loadbalance.mtp.Experiments.Fig6_loadbalance.completed
     = o.Experiments.Fig6_loadbalance.ecmp.Experiments.Fig6_loadbalance
         .completed
    && o.Experiments.Fig6_loadbalance.mtp.Experiments.Fig6_loadbalance
         .completed
       > 0)

let test_fig7_shapes () =
  let config =
    { Experiments.Fig7_isolation.default with
      Experiments.Fig7_isolation.duration = Engine.Time.ms 8 }
  in
  let o = Experiments.Fig7_isolation.run ~config () in
  let ratio s =
    s.Experiments.Fig7_isolation.tenant2_gbps
    /. Float.max 1e-9 s.Experiments.Fig7_isolation.tenant1_gbps
  in
  checkb "shared queue favours the 8x tenant heavily" true
    (ratio o.Experiments.Fig7_isolation.shared_queue > 4.0);
  checkb "per-tenant queues equalize" true
    (ratio o.Experiments.Fig7_isolation.per_tenant_queues < 2.0);
  checkb "mtp fair marking equalizes on one queue" true
    (ratio o.Experiments.Fig7_isolation.mtp_fair_shared < 1.8);
  checkb "mtp does not waste the link" true
    (o.Experiments.Fig7_isolation.mtp_fair_shared
       .Experiments.Fig7_isolation.tenant1_gbps
    +. o.Experiments.Fig7_isolation.mtp_fair_shared
         .Experiments.Fig7_isolation.tenant2_gbps
    > 80.0)

let test_table1_demos () =
  let demos = Experiments.Table1_features.run_demos () in
  checkb "mutation demo" true
    demos.Experiments.Table1_features.mtp_mutation_ok;
  checkb "tcp reorder demo" true
    (demos.Experiments.Table1_features.tcp_reorder_retransmits > 10);
  checkb "cache interposition demo" true
    (demos.Experiments.Table1_features.mtp_cache_hits >= 3)

let test_results_printable () =
  (* Every harness renders without raising, including series dumps. *)
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Experiments.Exp_common.print ~dump_series:true fmt
    (Experiments.Exp_common.make ~title:"t"
       ~series:
         [ { Experiments.Exp_common.label = "s";
             data =
               (let ts = Stats.Timeseries.create () in
                Stats.Timeseries.add ts ~time:0 1.0;
                ts) } ]
       ~notes:[ "note" ] ());
  Format.pp_print_flush fmt ();
  checkb "rendered something" true (Buffer.length buf > 10)

let test_determinism_same_seed () =
  let run () =
    let config =
      { Experiments.Fig5_multipath.default with
        Experiments.Fig5_multipath.duration = Engine.Time.ms 1 }
    in
    let o = Experiments.Fig5_multipath.run ~config () in
    ( Stats.Timeseries.values o.Experiments.Fig5_multipath.dctcp,
      Stats.Timeseries.values o.Experiments.Fig5_multipath.mtp )
  in
  let d1, m1 = run () in
  let d2, m2 = run () in
  Alcotest.(check (array (float 0.0))) "dctcp series identical" d1 d2;
  Alcotest.(check (array (float 0.0))) "mtp series identical" m1 m2

let test_ablation_pathlets_shape () =
  let o = Experiments.Ablation_pathlets.run ~duration:(Engine.Time.ms 4) () in
  checkb "per-link pathlets beat a merged one" true
    (o.Experiments.Ablation_pathlets.benefit > 1.2)

let test_ablation_algorithms_shape () =
  let outs =
    Experiments.Ablation_algorithms.run ~duration:(Engine.Time.ms 6) ()
  in
  List.iter
    (fun o ->
      checkb
        (o.Experiments.Ablation_algorithms.name ^ " drives the link")
        true
        (o.Experiments.Ablation_algorithms.goodput_gbps > 7.0))
    outs;
  let q name =
    (List.find (fun o -> o.Experiments.Ablation_algorithms.name = name) outs)
      .Experiments.Ablation_algorithms.mean_queue_pkts
  in
  checkb "RCP holds the shortest queue" true
    (q "RCP + rate grants" < q "AIMD + ECN"
    && q "RCP + rate grants" < q "Swift + delay")

let test_ablation_trimming_shape () =
  let o = Experiments.Ablation_trimming.run () in
  checki "trimming avoids timeouts" 0
    o.Experiments.Ablation_trimming.trimming
      .Experiments.Ablation_trimming.timeouts;
  checkb "drop-tail pays RTOs" true
    (o.Experiments.Ablation_trimming.droptail
       .Experiments.Ablation_trimming.timeouts
    > 0);
  checkb "trimming completes the incast sooner" true
    (o.Experiments.Ablation_trimming.trimming
       .Experiments.Ablation_trimming.completion_us
    < o.Experiments.Ablation_trimming.droptail
        .Experiments.Ablation_trimming.completion_us)

let test_ablation_exclusion_shape () =
  let o = Experiments.Ablation_exclusion.run ~duration:(Engine.Time.ms 10) () in
  checkb "exclusion cuts the mean FCT by a lot" true
    (o.Experiments.Ablation_exclusion.with_exclusion
       .Experiments.Ablation_exclusion.mean_fct_us
     *. 3.0
    < o.Experiments.Ablation_exclusion.without_exclusion
        .Experiments.Ablation_exclusion.mean_fct_us)

let test_coexistence_shape () =
  let o = Experiments.Coexistence.run ~duration:(Engine.Time.ms 10) () in
  checkb "neither transport starves" true
    (o.Experiments.Coexistence.tcp_gbps > 1.5
    && o.Experiments.Coexistence.mtp_gbps > 1.5);
  checkb "roughly fair" true (o.Experiments.Coexistence.jain_fairness > 0.75)

let test_header_overhead_model () =
  let rows = Experiments.Header_overhead.rows () in
  checkb "MTP base header close to TCP's" true
    (List.exists
       (fun r ->
         r.Experiments.Header_overhead.scenario = "MTP data, no feedback"
         && r.Experiments.Header_overhead.header_bytes <= 48)
       rows);
  let eff1k =
    Experiments.Header_overhead.goodput_efficiency ~msg_bytes:1_000 ~hops:1
  in
  let eff4m =
    Experiments.Header_overhead.goodput_efficiency ~msg_bytes:4_000_000
      ~hops:1
  in
  checkb "efficiency grows with message size" true (eff4m > eff1k);
  checkb "efficiency is high" true (eff4m > 0.9)

let test_csv_export () =
  let dir = Filename.temp_file "mtpcsv" "" in
  Sys.remove dir;
  let ts = Stats.Timeseries.create () in
  Stats.Timeseries.add ts ~time:1000 1.5;
  Stats.Timeseries.add ts ~time:2000 2.5;
  let table = Stats.Table.create ~columns:[ "a"; "b" ] in
  Stats.Table.add_row table [ "x,with comma"; "y" ];
  let result =
    Experiments.Exp_common.make ~title:"T: demo!"
      ~series:[ { Experiments.Exp_common.label = "S 1"; data = ts } ]
      ~table ()
  in
  let written = Experiments.Exp_common.write_csv ~dir result in
  checki "two files" 2 (List.length written);
  let read path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  (match written with
  | [ series_file; table_file ] ->
    Alcotest.(check (list string))
      "series rows"
      [ "time_us,value"; "1.000,1.500000"; "2.000,2.500000" ]
      (read series_file);
    Alcotest.(check (list string))
      "table rows with escaping"
      [ "a,b"; "\"x,with comma\",y" ]
      (read table_file)
  | _ -> Alcotest.fail "unexpected file list");
  List.iter Sys.remove written;
  Sys.rmdir dir

let test_failover_shapes () =
  (* Full-rate fabric, shortened timeline: the packet-level dynamics
     (RTO-scale suspicion vs ms-scale reconvergence) are preserved,
     the run is roughly halved. *)
  let config = Experiments.Ext_failover.smoke in
  let o =
    Experiments.Exp_common.collect (fun emit ->
        Experiments.Ext_failover.jobs ~config ~emit ())
  in
  checki "four schemes" 4 (List.length o.Experiments.Ext_failover.schemes);
  List.iter
    (fun s ->
      checkb
        (s.Experiments.Ext_failover.s_label ^ ": carried traffic pre-failure")
        true
        (s.Experiments.Ext_failover.s_pre_gbps > 1.0))
    o.Experiments.Ext_failover.schemes;
  let recovery label =
    match Experiments.Ext_failover.recovery_of o label with
    | Some t -> t
    | None -> Alcotest.failf "%s never recovered within the run" label
  in
  let tcp = recovery "TCP" in
  let mtp_excl = recovery "MTP (pathlet exclusion)" in
  (* The paper's core robustness claim: pathlet exclusion reroutes at
     RTO scale, well before routing reconvergence pulls TCP back up. *)
  checkb "mtp exclusion strictly faster than tcp" true (mtp_excl < tcp);
  checkb "mtp exclusion beats the reconvergence delay" true
    (mtp_excl < config.Experiments.Ext_failover.detect)

let test_mean_between () =
  let ts = Stats.Timeseries.create () in
  for i = 1 to 10 do
    Stats.Timeseries.add ts ~time:(i * 100) (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "window mean" 8.0
    (Experiments.Exp_common.mean_between ts ~lo:600 ~hi:1000);
  checki "sanity" 10 (Stats.Timeseries.length ts)

(* The config the CLI tests run an exhibit at: its smoke config, 1 ms
   long. *)
let test_config flags smoke =
  List.fold_left
    (fun c (Experiments.Exhibits.Flag f) ->
      match f.kind with
      | Int _ when f.name = "duration-ms" -> f.set (Engine.Time.ms 1) c
      | _ -> c)
    smoke flags

(* Every int flag's default and smoke value is a whole number of its
   unit within its range (so --help shows the exact default), passing a
   flag at its default is a no-op, [get] reads what [set] wrote, and the
   default, smoke and test configs all pass the exhibit's check. *)
let test_exhibit_table () =
  let open Experiments.Exhibits in
  List.iter
    (fun (Exhibit e) ->
      let ok what b = checkb (e.name ^ " " ^ what) true b in
      List.iter
        (fun (Flag f) ->
          let ok what = ok ("--" ^ f.name ^ ": " ^ what) in
          (match f.kind with
          | Int { lo; unit; hi } ->
            List.iter
              (fun v -> ok "whole units in range"
                  (v mod scale unit = 0 && v >= lo * scale unit && v <= hi))
              [ f.get e.default; f.get e.smoke ]
          | _ -> ());
          ok "set default is a no-op" (f.set (f.get e.default) e.default = e.default);
          ok "get reads set" (f.get (f.set (f.get e.smoke) e.default) = f.get e.smoke))
        e.flags;
      List.iter
        (fun c -> ok "config passes check" (e.check c = Ok ()))
        [ e.default; e.smoke; test_config e.flags e.smoke ])
    (par_leafspine :: all)

let suite =
  [ Alcotest.test_case "fig2 shape" `Slow test_fig2_shapes;
    Alcotest.test_case "fig3 shape" `Slow test_fig3_shapes;
    Alcotest.test_case "fig5 shape" `Slow test_fig5_shapes;
    Alcotest.test_case "fig6 shape" `Slow test_fig6_shapes;
    Alcotest.test_case "fig7 shape" `Slow test_fig7_shapes;
    Alcotest.test_case "table1 demos" `Slow test_table1_demos;
    Alcotest.test_case "result printing" `Quick test_results_printable;
    Alcotest.test_case "determinism" `Slow test_determinism_same_seed;
    Alcotest.test_case "ablation pathlets" `Slow test_ablation_pathlets_shape;
    Alcotest.test_case "ablation algorithms" `Slow
      test_ablation_algorithms_shape;
    Alcotest.test_case "ablation trimming" `Slow test_ablation_trimming_shape;
    Alcotest.test_case "ablation exclusion" `Slow
      test_ablation_exclusion_shape;
    Alcotest.test_case "coexistence" `Slow test_coexistence_shape;
    Alcotest.test_case "failover recovery" `Slow test_failover_shapes;
    Alcotest.test_case "header overhead" `Quick test_header_overhead_model;
    Alcotest.test_case "csv export" `Quick test_csv_export;
    Alcotest.test_case "mean_between" `Quick test_mean_between;
    Alcotest.test_case "exhibit table round-trip" `Quick test_exhibit_table ]
