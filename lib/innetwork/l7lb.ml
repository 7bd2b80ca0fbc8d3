type policy = Round_robin | Least_outstanding | Ewma_latency

type t = {
  replicas : (Netsim.Packet.addr * int) array;
  policy : policy;
  out : int array;
  totals : int array;
  ewma : float array; (* microseconds *)
  mutable rr : int;
  mutable n_replies : int;
}

let choose t =
  let n = Array.length t.replicas in
  match t.policy with
  | Round_robin ->
    let i = t.rr mod n in
    t.rr <- t.rr + 1;
    i
  | Least_outstanding ->
    let best = ref 0 in
    Array.iteri (fun i o -> if o < t.out.(!best) then best := i) t.out;
    !best
  | Ewma_latency ->
    (* Balance by expected queueing: latency estimate scaled by how
       much is already outstanding there (C3's intuition). *)
    let score i = t.ewma.(i) *. float_of_int (1 + t.out.(i)) in
    let best = ref 0 in
    for i = 1 to n - 1 do
      if score i < score !best then best := i
    done;
    !best

let create ep ~port ~replicas ?(policy = Least_outstanding) () =
  let n = Array.length replicas in
  let t =
    { replicas; policy; out = Array.make n 0; totals = Array.make n 0;
      ewma = Array.make n 50.0; rr = 0; n_replies = 0 }
  in
  Mtp.Endpoint.bind ep ~port (fun request ->
      let idx = choose t in
      let replica, replica_port = t.replicas.(idx) in
      t.out.(idx) <- t.out.(idx) + 1;
      t.totals.(idx) <- t.totals.(idx) + 1;
      let sent_at = Engine.Sim.now (Mtp.Endpoint.sim ep) in
      (* A private reply port per outstanding request keeps request /
         reply matching trivial and collision-free. *)
      let reply_port = Mtp.Endpoint.fresh_port ep in
      Mtp.Endpoint.bind ep ~port:reply_port (fun reply ->
          Mtp.Endpoint.unbind ep ~port:reply_port;
          t.out.(idx) <- t.out.(idx) - 1;
          t.n_replies <- t.n_replies + 1;
          let latency_us =
            Engine.Time.to_float_us
              (Engine.Sim.now (Mtp.Endpoint.sim ep) - sent_at)
          in
          t.ewma.(idx) <- (0.8 *. t.ewma.(idx)) +. (0.2 *. latency_us);
          (* Relay the reply to the original client. *)
          ignore
            (Mtp.Endpoint.send ep ~dst:request.Mtp.Endpoint.dl_src
               ~dst_port:request.Mtp.Endpoint.dl_src_port ~src_port:port
               ~cookie:reply.Mtp.Endpoint.dl_cookie
               ~cookie2:reply.Mtp.Endpoint.dl_cookie2
               ~size:reply.Mtp.Endpoint.dl_size ()));
      ignore
        (Mtp.Endpoint.send ep ~dst:replica ~dst_port:replica_port
           ~src_port:reply_port ~cookie:request.Mtp.Endpoint.dl_cookie
           ~cookie2:request.Mtp.Endpoint.dl_cookie2
           ~size:request.Mtp.Endpoint.dl_size ()));
  t

let relayed_replies t = t.n_replies
let per_replica t = Array.copy t.totals
