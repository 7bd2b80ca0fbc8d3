type t = {
  mutable rev_points : (Engine.Time.t * float) list;
  mutable n : int;
  mutable last_time : Engine.Time.t;
}

let create () = { rev_points = []; n = 0; last_time = min_int }

let add t ~time v =
  if time < t.last_time then invalid_arg "Timeseries.add: time went backwards";
  t.rev_points <- (time, v) :: t.rev_points;
  t.n <- t.n + 1;
  t.last_time <- time

let length t = t.n

let points t = List.rev t.rev_points

let values t = Array.of_list (List.rev_map snd t.rev_points)

let last t = match t.rev_points with [] -> None | p :: _ -> Some p

let mean t =
  if t.n = 0 then 0.0
  else
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 t.rev_points
    /. float_of_int t.n

(* Fold from the first point, not 0.0: an all-negative series must
   report its true maximum, and an all-sub-zero one must not report a
   phantom 0. *)
let max_value t =
  match t.rev_points with
  | [] -> 0.0
  | (_, v0) :: rest -> List.fold_left (fun acc (_, v) -> Float.max acc v) v0 rest

let summary t =
  let s = Summary.create () in
  List.iter (fun (_, v) -> Summary.add s v) (points t);
  s

let between t ~lo ~hi =
  let sub = create () in
  List.iter
    (fun (time, v) -> if time >= lo && time <= hi then add sub ~time v)
    (points t);
  sub

let pp_rows fmt t =
  List.iter
    (fun (time, v) ->
      Format.fprintf fmt "%12.3f %14.4f@." (float_of_int time /. 1e3) v)
    (points t)
