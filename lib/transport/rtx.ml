(* The estimator's floats live in an all-float record, which OCaml
   stores flat, so an RTT sample writes two doubles in place instead of
   boxing two fresh floats. *)
type floats = {
  mutable srtt : float; (* ns; negative = no sample yet *)
  mutable rttvar : float;
}

type t = {
  min_rto : Engine.Time.t;
  max_rto : Engine.Time.t;
  f : floats;
  mutable backoff_factor : int;
}

(* The timeout before the first RTT sample. *)
let init_rto = Engine.Time.us 200

let create ?(min_rto = Engine.Time.us 50) ?(max_rto = Engine.Time.ms 100) () =
  { min_rto; max_rto; f = { srtt = -1.0; rttvar = 0.0 }; backoff_factor = 1 }

let observe t sample =
  let f = t.f in
  let r = float_of_int sample in
  if f.srtt < 0.0 then begin
    f.srtt <- r;
    f.rttvar <- r /. 2.0
  end
  else begin
    let alpha = 0.125 and beta = 0.25 in
    f.rttvar <- ((1.0 -. beta) *. f.rttvar) +. (beta *. Float.abs (f.srtt -. r));
    f.srtt <- ((1.0 -. alpha) *. f.srtt) +. (alpha *. r)
  end

let rto t =
  let f = t.f in
  let base =
    if f.srtt < 0.0 then init_rto
    else int_of_float (f.srtt +. (4.0 *. f.rttvar))
  in
  Int.min t.max_rto (Int.max t.min_rto base * t.backoff_factor)

let srtt t = if t.f.srtt < 0.0 then init_rto else int_of_float t.f.srtt

let backoff t = t.backoff_factor <- Int.min 64 (t.backoff_factor * 2)

let reset_backoff t = t.backoff_factor <- 1
