type send = size:int -> on_complete:(Engine.Time.t -> unit) -> unit

type t = {
  d_fcts : Stats.Summary.t;
  mutable n_started : int;
  mutable n_completed : int;
  mutable running : bool;
}

let fcts t = t.d_fcts
let started t = t.n_started
let completed t = t.n_completed
let stop t = t.running <- false

let pooled_fcts ts =
  let all = Stats.Summary.create () in
  List.iter
    (fun t -> Array.iter (Stats.Summary.add all) (Stats.Summary.samples t.d_fcts))
    ts;
  all

let create () =
  { d_fcts = Stats.Summary.create (); n_started = 0; n_completed = 0;
    running = true }

let record t fct =
  t.n_completed <- t.n_completed + 1;
  Stats.Summary.add t.d_fcts (Engine.Time.to_float_us fct)

let poisson sim ~rng ~size ~mean_interarrival ?until send =
  let t = create () in
  let within () =
    match until with None -> true | Some u -> Engine.Sim.now sim <= u
  in
  let rec arrival () =
    if t.running && within () then begin
      t.n_started <- t.n_started + 1;
      send ~size:(Dist.sample_bytes size rng) ~on_complete:(record t);
      let gap =
        max 1
          (int_of_float
             (Engine.Rng.exponential rng
                ~mean:(float_of_int mean_interarrival)))
      in
      ignore (Engine.Sim.after sim gap arrival)
    end
  in
  arrival ();
  t

let closed_loop ?(parallel = 1) ~size send =
  let t = create () in
  let rec next () =
    if t.running then begin
      t.n_started <- t.n_started + 1;
      send ~size ~on_complete:(fun fct ->
          record t fct;
          next ())
    end
  in
  for _ = 1 to parallel do
    next ()
  done;
  t

let load_interarrival ~rate ~load ~mean_size =
  assert (load > 0.0);
  let bytes_per_ns = float_of_int rate *. load /. 8.0e9 in
  max 1 (int_of_float (mean_size /. bytes_per_ns))
