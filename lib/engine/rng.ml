type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let derive t i =
  assert (i >= 0);
  (* Child stream [i] off the generator's *current* state: a
     gamma-spaced offset selects the stream, and the extra mix + xor
     of the index separates the children from each other and from the
     parent's own output sequence.  Pure — the parent is not advanced,
     so [derive t 0 .. derive t (n-1)] form a reproducible family
     regardless of evaluation order. *)
  let z = Int64.add t.state (Int64.mul golden_gamma (Int64.of_int (i + 1))) in
  { state = mix64 (Int64.logxor (mix64 z) (Int64.of_int i)) }

let as_seed t = Int64.to_int t.state land max_int

let float t =
  (* 53 high-quality bits into the mantissa. *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  assert (bound > 0);
  (* Rejection-free modulo is fine here: bounds in this codebase are
     tiny compared to 2^62, so bias is negligible for simulation. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  let u = float t in
  -.mean *. log (1.0 -. u)

let pareto t ~shape ~scale =
  let u = float t in
  scale /. ((1.0 -. u) ** (1.0 /. shape))

let normal t ~mean ~stddev =
  let u1 = max 1e-300 (float t) in
  let u2 = float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal t ~mu ~sigma = exp (normal t ~mean:mu ~stddev:sigma)
