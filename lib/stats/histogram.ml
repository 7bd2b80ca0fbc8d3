type scale = Linear | Log

type t = {
  scale : scale;
  lo : float;
  hi : float;
  counts : int array;
  mutable under : int;
  mutable over : int;
  mutable nan_count : int;
  mutable total : int;
}

let create_linear ~lo ~hi ~buckets =
  if buckets <= 0 || hi <= lo then invalid_arg "Histogram.create_linear";
  { scale = Linear; lo; hi; counts = Array.make buckets 0;
    under = 0; over = 0; nan_count = 0; total = 0 }

let create_log ~lo ~hi ~buckets =
  if buckets <= 0 || hi <= lo || lo <= 0.0 then
    invalid_arg "Histogram.create_log";
  { scale = Log; lo; hi; counts = Array.make buckets 0;
    under = 0; over = 0; nan_count = 0; total = 0 }

let position t v =
  match t.scale with
  | Linear -> (v -. t.lo) /. (t.hi -. t.lo)
  | Log ->
    if v <= 0.0 then -1.0
    else (log v -. log t.lo) /. (log t.hi -. log t.lo)

let add t v =
  (* NaN fails both [position] comparisons below and [int_of_float nan]
     is 0, so without this guard invalid samples would silently inflate
     bucket 0.  They are filed in a dedicated cell instead, excluded
     from [total]. *)
  if Float.is_nan v then t.nan_count <- t.nan_count + 1
  else begin
    t.total <- t.total + 1;
    let buckets = Array.length t.counts in
    let pos = position t v in
    if pos < 0.0 then t.under <- t.under + 1
    else if pos >= 1.0 then t.over <- t.over + 1
    else begin
      let idx = int_of_float (pos *. float_of_int buckets) in
      let idx = min (buckets - 1) idx in
      t.counts.(idx) <- t.counts.(idx) + 1
    end
  end

let count t = t.total

let bucket_count t = Array.length t.counts

let bound t frac =
  match t.scale with
  | Linear -> t.lo +. (frac *. (t.hi -. t.lo))
  | Log -> exp (log t.lo +. (frac *. (log t.hi -. log t.lo)))

let bucket_range t i =
  let n = float_of_int (Array.length t.counts) in
  (bound t (float_of_int i /. n), bound t (float_of_int (i + 1) /. n))

let bucket_value t i = t.counts.(i)

let underflow t = t.under
let overflow t = t.over
let invalid t = t.nan_count
