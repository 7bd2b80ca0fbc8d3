type t = {
  min_rto : Engine.Time.t;
  max_rto : Engine.Time.t;
  mutable srtt : float; (* ns; negative = no sample yet *)
  mutable rttvar : float;
  mutable backoff_factor : int;
}

(* The timeout before the first RTT sample. *)
let init_rto = Engine.Time.us 200

let create ?(min_rto = Engine.Time.us 50) ?(max_rto = Engine.Time.ms 100) () =
  { min_rto; max_rto; srtt = -1.0; rttvar = 0.0; backoff_factor = 1 }

let observe t sample =
  let r = float_of_int sample in
  if t.srtt < 0.0 then begin
    t.srtt <- r;
    t.rttvar <- r /. 2.0
  end
  else begin
    let alpha = 0.125 and beta = 0.25 in
    t.rttvar <- ((1.0 -. beta) *. t.rttvar) +. (beta *. Float.abs (t.srtt -. r));
    t.srtt <- ((1.0 -. alpha) *. t.srtt) +. (alpha *. r)
  end

let rto t =
  let base =
    if t.srtt < 0.0 then init_rto
    else int_of_float (t.srtt +. (4.0 *. t.rttvar))
  in
  Int.min t.max_rto (Int.max t.min_rto base * t.backoff_factor)

let srtt t = if t.srtt < 0.0 then init_rto else int_of_float t.srtt

let backoff t = t.backoff_factor <- Int.min 64 (t.backoff_factor * 2)

let reset_backoff t = t.backoff_factor <- 1
