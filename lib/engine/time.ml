type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let to_float_s t = float_of_int t /. 1e9
let to_float_us t = float_of_int t /. 1e3

type rate = int

let gbps n = n * 1_000_000_000
let mbps n = n * 1_000_000

(* Float intermediates avoid 63-bit overflow for multi-gigabyte
   transfers; the values involved stay well below 2^53 so the result is
   exact to the nanosecond. *)
let tx_time ~bytes ~rate =
  if bytes <= 0 then 0
  else begin
    assert (rate > 0);
    let t = float_of_int bytes *. 8e9 /. float_of_int rate in
    Int.max 1 (int_of_float (Float.round t))
  end

let bytes_in ~rate dt =
  if dt <= 0 then 0
  else int_of_float (float_of_int dt *. float_of_int rate /. 8e9)
