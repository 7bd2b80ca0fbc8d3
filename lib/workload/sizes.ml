(* Log-normal body: median 40 KB (mu = ln 4e4), sigma 1.6 gives a long
   right tail; 2% of messages come from a Pareto tail reaching the cap.
   Clamped to the paper's 10 KB lower bound. *)
let paper_mix_capped ~max =
  Dist.clamped ~lo:10_000.0 ~hi:(float_of_int max)
    (Dist.mix
       [ (0.98, Dist.lognormal ~mu:(log 4.0e4) ~sigma:1.6);
         (0.02, Dist.pareto ~shape:0.9 ~scale:1.0e6) ])

let fixed n = Dist.constant (float_of_int n)
