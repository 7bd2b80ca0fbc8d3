let op_get = 1
let op_reply = 2

let request_bytes = 200

type server = {
  s_ep : Mtp.Endpoint.t;
  s_port : int;
  service_time : Engine.Time.t;
  value_size : int -> int;
  pending : Mtp.Endpoint.delivery Queue.t;
  mutable busy : bool;
  mutable served : int;
}

let rec serve_next s =
  match Queue.take_opt s.pending with
  | None -> s.busy <- false
  | Some d ->
    s.busy <- true;
    Engine.Sim.after (Mtp.Endpoint.sim s.s_ep) s.service_time (fun () ->
        s.served <- s.served + 1;
        let key = d.Mtp.Endpoint.dl_cookie2 in
        ignore
          (Mtp.Endpoint.send s.s_ep ~dst:d.Mtp.Endpoint.dl_src
             ~dst_port:d.Mtp.Endpoint.dl_src_port ~src_port:s.s_port
             ~cookie:op_reply ~cookie2:key ~size:(s.value_size key) ());
        serve_next s)

let server ep ~port ?(service_time = Engine.Time.us 1) ~value_size () =
  let s =
    { s_ep = ep; s_port = port; service_time; value_size;
      pending = Queue.create (); busy = false; served = 0 }
  in
  Mtp.Endpoint.bind ep ~port (fun d ->
      if d.Mtp.Endpoint.dl_cookie = op_get then begin
        Queue.push d s.pending;
        if not s.busy then serve_next s
      end);
  s

let requests_served s = s.served

type client = {
  c_ep : Mtp.Endpoint.t;
  reply_port : int;
  waiting :
    (int, (Engine.Time.t * (size:int -> latency:Engine.Time.t -> unit)) Queue.t)
    Hashtbl.t;
}

let client ep =
  let reply_port = Mtp.Endpoint.fresh_port ep in
  let c = { c_ep = ep; reply_port; waiting = Hashtbl.create 32 } in
  Mtp.Endpoint.bind ep ~port:reply_port (fun d ->
      if d.Mtp.Endpoint.dl_cookie = op_reply then begin
        let key = d.Mtp.Endpoint.dl_cookie2 in
        match Hashtbl.find_opt c.waiting key with
        | Some q ->
          (match Queue.take_opt q with
          | Some (asked_at, callback) ->
            if Queue.is_empty q then Hashtbl.remove c.waiting key;
            callback ~size:d.Mtp.Endpoint.dl_size
              ~latency:(Engine.Sim.now (Mtp.Endpoint.sim ep) - asked_at)
          | None -> Hashtbl.remove c.waiting key)
        | None -> ()
      end);
  c

let get c ~server ~server_port ~key ?on_reply () =
  (match on_reply with
  | Some callback ->
    let q =
      match Hashtbl.find_opt c.waiting key with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add c.waiting key q;
        q
    in
    Queue.push (Engine.Sim.now (Mtp.Endpoint.sim c.c_ep), callback) q
  | None -> ());
  ignore
    (Mtp.Endpoint.send c.c_ep ~dst:server ~dst_port:server_port
       ~src_port:c.reply_port ~cookie:op_get ~cookie2:key
       ~size:request_bytes ())
