type t = {
  mutable interval_bytes : int;
  mutable total : int;
  mutable running : bool;
  rates : Timeseries.t;
}

let create sim ~interval () =
  let t =
    { interval_bytes = 0; total = 0; running = true;
      rates = Timeseries.create () }
  in
  ignore @@ Engine.Sim.periodic sim ~interval (fun () ->
      if t.running then begin
        let gbps =
          float_of_int t.interval_bytes *. 8.0 /. float_of_int interval
        in
        (* bytes*8 bits over `interval` ns = bits/ns = Gbps. *)
        Timeseries.add t.rates ~time:(Engine.Sim.now sim) gbps;
        t.interval_bytes <- 0
      end;
      t.running);
  t

let count_bytes t n =
  t.interval_bytes <- t.interval_bytes + n;
  t.total <- t.total + n

let stop t = t.running <- false

let series t = t.rates

let total_bytes t = t.total

let mean_gbps t = Timeseries.mean t.rates
