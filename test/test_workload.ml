(* Tests for distributions, size mixes, and traffic drivers. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let rng () = Engine.Rng.create 99

(* ------------------------------- Dist ------------------------------ *)

let test_constant () =
  let d = Workload.Dist.constant 42.0 in
  let r = rng () in
  for _ = 1 to 10 do
    checkf "constant" 42.0 (Workload.Dist.sample d r)
  done

let test_lognormal_positive () =
  let d = Workload.Dist.lognormal ~mu:10.0 ~sigma:2.0 in
  let r = rng () in
  for _ = 1 to 1000 do
    checkb "positive" true (Workload.Dist.sample d r > 0.0)
  done

let test_clamped () =
  let d =
    Workload.Dist.clamped ~lo:100.0 ~hi:200.0
      (Workload.Dist.lognormal ~mu:(log 150.0) ~sigma:2.0)
  in
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Workload.Dist.sample d r in
    checkb "clamped" true (v >= 100.0 && v <= 200.0)
  done

let test_mix_weights () =
  (* A 9:1 mixture of two constants: the sample mean reveals the
     weighting. *)
  let d =
    Workload.Dist.mix
      [ (9.0, Workload.Dist.constant 0.0); (1.0, Workload.Dist.constant 10.0) ]
  in
  let m = Workload.Dist.mean_estimate d (rng ()) 50_000 in
  checkb "mixture mean near 1.0" true (m > 0.8 && m < 1.2)

let test_sample_bytes_positive () =
  let d = Workload.Dist.constant 0.2 in
  checki "at least one byte" 1 (Workload.Dist.sample_bytes d (rng ()))

(* ------------------------------- Sizes ----------------------------- *)

let test_mix_overrun_falls_to_last () =
  (* The float-accumulation overrun fallback must select the *last*
     weighted component (its cumulative interval ends at the total),
     not the first.  The branch is unreachable through the public
     sampler with well-formed weights, so pin the distributional
     consequence instead: a vanishing-weight first component must
     essentially never be drawn, which fallback-to-first would
     violate on every overrun. *)
  let r = Engine.Rng.create 7 in
  let d =
    Workload.Dist.mix
      [ (1e-12, Workload.Dist.constant 111.0);
        (1.0, Workload.Dist.constant 1.0);
        (1.0, Workload.Dist.constant 2.0) ]
  in
  let first_hits = ref 0 in
  for _ = 1 to 20_000 do
    if Workload.Dist.sample d r = 111.0 then incr first_hits
  done;
  checkb "first component never drawn" true (!first_hits = 0)

(* The paper's full 10 KB – 1 GB range. *)
let paper_mix = Workload.Sizes.paper_mix_capped ~max:1_000_000_000

let test_paper_mix_range () =
  let r = rng () in
  for _ = 1 to 5000 do
    let v = Workload.Dist.sample_bytes paper_mix r in
    checkb "10KB..1GB" true (v >= 10_000 && v <= 1_000_000_000)
  done

let test_paper_mix_skew () =
  (* "Skewed toward short messages": the median must sit well below the
     mean. *)
  let r = rng () in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s
      (float_of_int (Workload.Dist.sample_bytes paper_mix r))
  done;
  checkb "median << mean (heavy tail)" true
    (Stats.Summary.median s *. 3.0 < Stats.Summary.mean s);
  checkb "most messages are small" true
    (Stats.Summary.percentile s 75.0 < 300_000.0)

let test_paper_mix_cap () =
  let d = Workload.Sizes.paper_mix_capped ~max:1_000_000 in
  let r = rng () in
  for _ = 1 to 5000 do
    checkb "capped" true (Workload.Dist.sample_bytes d r <= 1_000_000)
  done

(* ------------------------------ Driver ----------------------------- *)

(* Stop [driver] at [at]: transfers already started still complete. *)
let stop_at sim driver at =
  Engine.Sim.schedule sim ~at (fun () -> Workload.Driver.stop driver)

let test_closed_loop_counts () =
  let sim = Engine.Sim.create () in
  let fcts = Stats.Summary.create () in
  let driver =
    Workload.Driver.closed_loop ~size:1000 (fun ~size ~on_complete ->
        (* Instant "network": complete after 1 us. *)
        Engine.Sim.after sim (Engine.Time.us 1) (fun () ->
            let fct = Engine.Time.us size in
            Stats.Summary.add fcts (Engine.Time.to_float_us fct);
            on_complete fct))
  in
  (* Starts at 0..4 us; the stop lands before the fifth completion. *)
  stop_at sim driver (Engine.Time.us 4 + 500);
  Engine.Sim.run sim;
  checki "started" 5 (Workload.Driver.started driver);
  checki "completed" 5 (Workload.Driver.completed driver);
  checki "fcts recorded" 5 (Stats.Summary.count fcts)

let test_closed_loop_parallel () =
  let sim = Engine.Sim.create () in
  let active = ref 0 and peak = ref 0 in
  let driver =
    Workload.Driver.closed_loop ~size:1000 ~parallel:3
      (fun ~size:_ ~on_complete ->
        incr active;
        if !active > !peak then peak := !active;
        Engine.Sim.after sim (Engine.Time.us 10) (fun () ->
            decr active;
            on_complete (Engine.Time.us 10)))
  in
  (* Four rounds of three start at 0, 10, 20 and 30 us. *)
  stop_at sim driver (Engine.Time.us 35);
  Engine.Sim.run sim;
  checki "all transfers ran" 12 (Workload.Driver.completed driver);
  checki "parallelism respected" 3 !peak

let test_poisson_respects_until () =
  let sim = Engine.Sim.create () in
  let driver =
    Workload.Driver.poisson sim ~rng:(rng ())
      ~size:(Workload.Sizes.fixed 1000)
      ~mean_interarrival:(Engine.Time.us 10)
      ~until:(Engine.Time.ms 1)
      (fun ~size:_ ~on_complete -> on_complete 0)
  in
  Engine.Sim.schedule sim ~at:(Engine.Time.ms 2) (fun () -> ());
  Engine.Sim.run sim;
  (* ~100 expected arrivals in 1 ms at 10 us spacing. *)
  let n = Workload.Driver.started driver in
  checkb "arrival count plausible" true (n > 50 && n < 200)

let test_load_interarrival () =
  (* 50% load of 100 Gbps with 125 KB messages = one message every
     20 us. *)
  let gap =
    Workload.Driver.load_interarrival ~rate:(Engine.Time.gbps 100) ~load:0.5
      ~mean_size:125_000.0
  in
  checki "20us" (Engine.Time.us 20) gap

let suite =
  [ Alcotest.test_case "dist constant" `Quick test_constant;
    Alcotest.test_case "dist lognormal" `Quick test_lognormal_positive;
    Alcotest.test_case "dist clamped" `Quick test_clamped;
    Alcotest.test_case "dist mix" `Quick test_mix_weights;
    Alcotest.test_case "dist bytes >= 1" `Quick test_sample_bytes_positive;
    Alcotest.test_case "mix overrun fallback" `Quick
      test_mix_overrun_falls_to_last;
    Alcotest.test_case "paper mix range" `Quick test_paper_mix_range;
    Alcotest.test_case "paper mix skew" `Quick test_paper_mix_skew;
    Alcotest.test_case "paper mix cap" `Quick test_paper_mix_cap;
    Alcotest.test_case "driver closed loop" `Quick test_closed_loop_counts;
    Alcotest.test_case "driver parallel" `Quick test_closed_loop_parallel;
    Alcotest.test_case "driver poisson until" `Quick test_poisson_respects_until;
    Alcotest.test_case "driver load calc" `Quick test_load_interarrival ]
