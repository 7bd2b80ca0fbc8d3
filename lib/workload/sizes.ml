(* Log-normal body: median 40 KB (mu = ln 4e4), sigma 1.6 gives a long
   right tail; 2% of messages come from a Pareto tail reaching the cap.
   Clamped to the paper's 10 KB – 1 GB range. *)
let skewed_mix ~max_bytes =
  Dist.clamped ~lo:10_000.0 ~hi:(float_of_int max_bytes)
    (Dist.mix
       [ (0.98, Dist.lognormal ~mu:(log 4.0e4) ~sigma:1.6);
         (0.02, Dist.pareto ~shape:0.9 ~scale:1.0e6) ])

let paper_mix = skewed_mix ~max_bytes:1_000_000_000

let paper_mix_capped ~max = skewed_mix ~max_bytes:max

let fixed n = Dist.constant (float_of_int n)
