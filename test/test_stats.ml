(* Tests for summaries, histograms, time series, meters and tables. *)

let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------ Summary ---------------------------- *)

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  checki "count" 4 (Stats.Summary.count s);
  checkf "mean" 2.5 (Stats.Summary.mean s);
  checkf "min" 1.0 (Stats.Summary.min_value s);
  checkf "max" 4.0 (Stats.Summary.max_value s)

let test_summary_percentiles () =
  let s = Stats.Summary.create () in
  for i = 1 to 100 do
    Stats.Summary.add s (float_of_int i)
  done;
  checkf "p0" 1.0 (Stats.Summary.percentile s 0.0);
  checkf "p100" 100.0 (Stats.Summary.percentile s 100.0);
  checkf "median" 50.5 (Stats.Summary.median s);
  Alcotest.(check (float 0.2)) "p99" 99.0 (Stats.Summary.percentile s 99.0)

let test_summary_percentile_interpolates () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 0.0; 10.0 ];
  checkf "p25 interpolated" 2.5 (Stats.Summary.percentile s 25.0)

let test_summary_stddev () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  (* Population stddev 2 over mean 5. *)
  checkf "cv" 0.4 (Stats.Summary.cv s)

let test_summary_empty_raises () =
  let s = Stats.Summary.create () in
  checkf "mean of empty is 0" 0.0 (Stats.Summary.mean s);
  Alcotest.check_raises "percentile raises"
    (Invalid_argument "Summary.percentile: empty") (fun () ->
      ignore (Stats.Summary.percentile s 50.0))

let test_summary_unsorted_input () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 9.0; 1.0; 5.0 ];
  checkf "median sorts" 5.0 (Stats.Summary.median s);
  (* Add after a percentile query: cache must invalidate. *)
  Stats.Summary.add s 0.0;
  checkf "cache invalidated" 3.0 (Stats.Summary.median s)

(* qcheck: percentile is monotone in p and bounded by min/max. *)
let prop_percentile_monotone =
  QCheck.Test.make ~name:"summary percentile monotone & bounded" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
              (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (xs <> []);
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let lo = min p1 p2 and hi = max p1 p2 in
      let v1 = Stats.Summary.percentile s lo in
      let v2 = Stats.Summary.percentile s hi in
      v1 <= v2 +. 1e-9
      && v1 >= Stats.Summary.min_value s -. 1e-9
      && v2 <= Stats.Summary.max_value s +. 1e-9)

(* qcheck: percentile endpoints are exactly the extremes. *)
let prop_percentile_endpoints =
  QCheck.Test.make ~name:"summary percentile endpoints = min/max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50)
              (float_range (-1000.0) 1000.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      Stats.Summary.percentile s 0.0 = Stats.Summary.min_value s
      && Stats.Summary.percentile s 100.0 = Stats.Summary.max_value s)

(* ----------------------------- Histogram --------------------------- *)

let test_histogram_linear () =
  let h = Stats.Histogram.create_linear ~lo:0.0 ~hi:10.0 ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 9.9 ];
  checki "bucket0" 1 (Stats.Histogram.bucket_value h 0);
  checki "bucket1" 2 (Stats.Histogram.bucket_value h 1);
  checki "bucket9" 1 (Stats.Histogram.bucket_value h 9);
  checki "count" 4 (Stats.Histogram.count h)

let test_histogram_out_of_range () =
  let h = Stats.Histogram.create_linear ~lo:0.0 ~hi:1.0 ~buckets:4 in
  Stats.Histogram.add h (-5.0);
  Stats.Histogram.add h 2.0;
  checki "under" 1 (Stats.Histogram.underflow h);
  checki "over" 1 (Stats.Histogram.overflow h)

let test_histogram_log () =
  let h = Stats.Histogram.create_log ~lo:1.0 ~hi:1000.0 ~buckets:3 in
  List.iter (Stats.Histogram.add h) [ 2.0; 20.0; 200.0 ];
  checki "decade 1" 1 (Stats.Histogram.bucket_value h 0);
  checki "decade 2" 1 (Stats.Histogram.bucket_value h 1);
  checki "decade 3" 1 (Stats.Histogram.bucket_value h 2)

(* Bucket boundaries, pinned with exactly representable values: a
   bucket owns its inclusive lower edge, [hi] itself overflows. *)
let test_histogram_bucket_boundaries () =
  let h = Stats.Histogram.create_linear ~lo:0.0 ~hi:8.0 ~buckets:8 in
  List.iter (Stats.Histogram.add h)
    [ 0.0 (* = lo: bucket 0 *); 1.0 (* edge 0|1: bucket 1 *);
      7.0 (* edge 6|7: bucket 7 *); 7.5 (* interior: bucket 7 *) ];
  Stats.Histogram.add h 8.0 (* = hi: overflow, hi is exclusive *);
  Stats.Histogram.add h (-0.5);
  checki "lo lands in bucket 0" 1 (Stats.Histogram.bucket_value h 0);
  checki "edge owns its bucket" 1 (Stats.Histogram.bucket_value h 1);
  checki "last bucket" 2 (Stats.Histogram.bucket_value h 7);
  checki "hi overflows" 1 (Stats.Histogram.overflow h);
  checki "below lo underflows" 1 (Stats.Histogram.underflow h);
  (* Reported ranges agree with placement: each added edge value sits
     inside [bucket_range] of the bucket that counted it. *)
  let lo0, hi0 = Stats.Histogram.bucket_range h 0 in
  checkb "range 0" true (lo0 = 0.0 && hi0 = 1.0);
  let lo7, hi7 = Stats.Histogram.bucket_range h 7 in
  checkb "range 7" true (lo7 = 7.0 && hi7 = 8.0)

let test_histogram_log_boundaries () =
  let h = Stats.Histogram.create_log ~lo:1.0 ~hi:1000.0 ~buckets:3 in
  Stats.Histogram.add h 1.0;
  checki "lo lands in bucket 0" 1 (Stats.Histogram.bucket_value h 0);
  Stats.Histogram.add h 1000.0;
  checki "hi overflows" 1 (Stats.Histogram.overflow h);
  Stats.Histogram.add h 0.5;
  Stats.Histogram.add h 0.0;
  Stats.Histogram.add h (-3.0);
  checki "at/below zero underflow on log scale" 3
    (Stats.Histogram.underflow h)

let test_histogram_nan_invalid () =
  let h = Stats.Histogram.create_linear ~lo:0.0 ~hi:10.0 ~buckets:10 in
  Stats.Histogram.add h 0.5;
  Stats.Histogram.add h Float.nan;
  Stats.Histogram.add h Float.nan;
  checki "NaN kept out of bucket 0" 1 (Stats.Histogram.bucket_value h 0);
  checki "NaN kept out of count" 1 (Stats.Histogram.count h);
  checki "NaN kept out of under/overflow" 0
    (Stats.Histogram.underflow h + Stats.Histogram.overflow h);
  checki "invalid cell" 2 (Stats.Histogram.invalid h)

(* ----------------------------- Timeseries -------------------------- *)

let test_timeseries_basic () =
  let ts = Stats.Timeseries.create () in
  Stats.Timeseries.add ts ~time:10 1.0;
  Stats.Timeseries.add ts ~time:20 3.0;
  checki "length" 2 (Stats.Timeseries.length ts);
  checkf "mean" 2.0 (Stats.Timeseries.mean ts);
  checkf "max" 3.0 (Stats.Timeseries.max_value ts);
  (match Stats.Timeseries.last ts with
  | Some (t, v) ->
    checki "last time" 20 t;
    checkf "last value" 3.0 v
  | None -> Alcotest.fail "no last")

let test_timeseries_negative_max () =
  let ts = Stats.Timeseries.create () in
  Stats.Timeseries.add ts ~time:1 (-5.0);
  Stats.Timeseries.add ts ~time:2 (-2.0);
  Stats.Timeseries.add ts ~time:3 (-9.0);
  (* An all-negative series must not report the old 0.0 fold seed. *)
  checkf "max of negatives" (-2.0) (Stats.Timeseries.max_value ts);
  let empty = Stats.Timeseries.create () in
  checkf "empty max neutral" 0.0 (Stats.Timeseries.max_value empty);
  checkf "empty mean neutral" 0.0 (Stats.Timeseries.mean empty)

let test_timeseries_rejects_backwards () =
  let ts = Stats.Timeseries.create () in
  Stats.Timeseries.add ts ~time:10 1.0;
  Alcotest.check_raises "monotone time"
    (Invalid_argument "Timeseries.add: time went backwards") (fun () ->
      Stats.Timeseries.add ts ~time:5 2.0)

let test_timeseries_between () =
  let ts = Stats.Timeseries.create () in
  for i = 1 to 10 do
    Stats.Timeseries.add ts ~time:(i * 100) (float_of_int i)
  done;
  let sub = Stats.Timeseries.between ts ~lo:250 ~hi:750 in
  checki "window" 5 (Stats.Timeseries.length sub);
  checkf "window mean" 5.0 (Stats.Timeseries.mean sub)

(* ------------------------------- Meter ----------------------------- *)

let test_meter_measures_rate () =
  let sim = Engine.Sim.create () in
  let m = Stats.Meter.create sim ~interval:(Engine.Time.us 10) () in
  (* 12500 bytes per 10 us = 10 Gbps. *)
  Engine.Sim.periodic sim ~interval:(Engine.Time.us 1) (fun () ->
      Stats.Meter.count_bytes m 1250;
      Engine.Sim.now sim < Engine.Time.us 100);
  Engine.Sim.run ~until:(Engine.Time.us 101) sim;
  Stats.Meter.stop m;
  let mean = Stats.Meter.mean_gbps m in
  checkb "~10 Gbps measured" true (mean > 9.0 && mean < 11.0);
  checkb "bytes counted" true (Stats.Meter.total_bytes m >= 125_000)

let test_meter_stop () =
  let sim = Engine.Sim.create () in
  let m = Stats.Meter.create sim ~interval:(Engine.Time.us 10) () in
  Engine.Sim.schedule sim ~at:(Engine.Time.us 35) (fun () ->
      Stats.Meter.stop m);
  Engine.Sim.schedule sim ~at:(Engine.Time.ms 1) (fun () -> ());
  Engine.Sim.run sim;
  checkb "sampling stopped" true
    (Stats.Timeseries.length (Stats.Meter.series m) <= 4)

(* ------------------------------- Table ----------------------------- *)

let test_table_renders_aligned () =
  let t = Stats.Table.create ~columns:[ "name"; "value" ] in
  Stats.Table.add_row t [ "alpha"; "1" ];
  Stats.Table.add_rowf t "beta | 22";
  let s = Stats.Table.to_string t in
  checkb "contains header" true
    (Astring_like.contains s "name" && Astring_like.contains s "alpha");
  checki "rows kept" 2 (List.length (Stats.Table.rows t))

let test_table_arity_checked () =
  let t = Stats.Table.create ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Stats.Table.add_row t [ "only-one" ])

let suite =
  [ Alcotest.test_case "summary basic" `Quick test_summary_basic;
    Alcotest.test_case "summary percentiles" `Quick test_summary_percentiles;
    Alcotest.test_case "summary interpolation" `Quick
      test_summary_percentile_interpolates;
    Alcotest.test_case "summary stddev/cv" `Quick test_summary_stddev;
    Alcotest.test_case "summary empty" `Quick test_summary_empty_raises;
    Alcotest.test_case "summary cache" `Quick test_summary_unsorted_input;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_percentile_endpoints;
    Alcotest.test_case "histogram linear" `Quick test_histogram_linear;
    Alcotest.test_case "histogram boundaries" `Quick
      test_histogram_bucket_boundaries;
    Alcotest.test_case "histogram log boundaries" `Quick
      test_histogram_log_boundaries;
    Alcotest.test_case "histogram NaN invalid" `Quick
      test_histogram_nan_invalid;
    Alcotest.test_case "histogram bounds" `Quick test_histogram_out_of_range;
    Alcotest.test_case "histogram log" `Quick test_histogram_log;
    Alcotest.test_case "timeseries basic" `Quick test_timeseries_basic;
    Alcotest.test_case "timeseries negative max" `Quick
      test_timeseries_negative_max;
    Alcotest.test_case "timeseries monotone" `Quick
      test_timeseries_rejects_backwards;
    Alcotest.test_case "timeseries between" `Quick test_timeseries_between;
    Alcotest.test_case "meter rate" `Quick test_meter_measures_rate;
    Alcotest.test_case "meter stop" `Quick test_meter_stop;
    Alcotest.test_case "table render" `Quick test_table_renders_aligned;
    Alcotest.test_case "table arity" `Quick test_table_arity_checked ]
