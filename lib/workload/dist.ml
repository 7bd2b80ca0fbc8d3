type t = Engine.Rng.t -> float

let constant v _ = v

let pareto ~shape ~scale rng = Engine.Rng.pareto rng ~shape ~scale

let lognormal ~mu ~sigma rng = Engine.Rng.lognormal rng ~mu ~sigma

let clamped ~lo ~hi t rng = Float.min hi (Float.max lo (t rng))

let mix weighted =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
  if total <= 0.0 then invalid_arg "Dist.mix: weights";
  (* When float accumulation leaves [u] past the running total (u is
     drawn in [0, total) but the partial sums re-accumulate rounding
     differently), the draw belongs to the *last* component — its
     cumulative interval ends at [total].  Falling back to the first
     would skew the mixture toward it. *)
  let last = List.fold_left (fun _ (_, d) -> d) (snd (List.hd weighted)) weighted in
  fun rng ->
    let u = Engine.Rng.float rng *. total in
    let rec pick acc = function
      | [] -> last rng
      | (w, d) :: rest -> if u <= acc +. w then d rng else pick (acc +. w) rest
    in
    pick 0.0 weighted

let sample t rng = t rng

let sample_bytes t rng = max 1 (int_of_float (Float.round (t rng)))

let mean_estimate t rng n =
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. t rng
  done;
  !sum /. float_of_int n
