type t = {
  mutable data : float array;
  mutable len : int;
  mutable sorted : float array option; (* cache, invalidated by add *)
  mutable sum : float;
  mutable sum_sq : float;
}

let create () =
  { data = [||]; len = 0; sorted = None; sum = 0.0; sum_sq = 0.0 }

let add t x =
  if t.len = Array.length t.data then begin
    let cap = max 64 (2 * Array.length t.data) in
    let data = Array.make cap 0.0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- None;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x)

let count t = t.len

let mean t = if t.len = 0 then 0.0 else t.sum /. float_of_int t.len

let stddev t =
  if t.len < 2 then 0.0
  else
    let n = float_of_int t.len in
    let m = t.sum /. n in
    let var = (t.sum_sq /. n) -. (m *. m) in
    sqrt (max 0.0 var)

let cv t =
  let m = mean t in
  (* simlint: allow D003 — exact-zero divide guard, any nonzero mean is fine *)
  if m = 0.0 then 0.0 else stddev t /. m

let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
    let s = Array.sub t.data 0 t.len in
    Array.sort compare s;
    t.sorted <- Some s;
    s

let min_value t =
  if t.len = 0 then invalid_arg "Summary.min_value: empty";
  (sorted t).(0)

let max_value t =
  if t.len = 0 then invalid_arg "Summary.max_value: empty";
  (sorted t).(t.len - 1)

let percentile t p =
  if t.len = 0 then invalid_arg "Summary.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: range";
  let s = sorted t in
  let rank = p /. 100.0 *. float_of_int (t.len - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then s.(lo)
  else
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median t = percentile t 50.0

let samples t = Array.sub t.data 0 t.len
