type receiver = {
  partial : (Netsim.Packet.addr * int, int ref) Hashtbl.t;
  mutable completed : int;
}

let receiver ep ~port on_blob =
  let t = { partial = Hashtbl.create 32; completed = 0 } in
  Endpoint.bind ep ~port (fun d ->
      let key = (d.Endpoint.dl_src, d.Endpoint.dl_cookie) in
      let total = d.Endpoint.dl_cookie2 in
      let seen =
        match Hashtbl.find_opt t.partial key with
        | Some r -> r
        | None ->
          let r = ref 0 in
          Hashtbl.add t.partial key r;
          r
      in
      seen := !seen + d.Endpoint.dl_size;
      if !seen >= total then begin
        Hashtbl.remove t.partial key;
        t.completed <- t.completed + 1;
        on_blob ~src:d.Endpoint.dl_src ~blob_id:d.Endpoint.dl_cookie
          ~size:total
      end);
  t

let blobs_completed t = t.completed

let send ep ~dst ~dst_port ~blob_id ~size ?(chunk = 1440) ?on_complete () =
  if size <= 0 then invalid_arg "Blob.send: size must be positive";
  let nchunks = (size + chunk - 1) / chunk in
  let acked = ref 0 in
  let started = Engine.Sim.now (Endpoint.sim ep) in
  let chunk_done _fct =
    incr acked;
    if !acked = nchunks then
      match on_complete with
      | Some f -> f (Engine.Sim.now (Endpoint.sim ep) - started)
      | None -> ()
  in
  let rec go offset =
    if offset < size then begin
      let len = min chunk (size - offset) in
      ignore
        (Endpoint.send ep ~dst ~dst_port ~cookie:blob_id
           ~cookie2:size ~on_complete:chunk_done ~size:len ());
      go (offset + len)
    end
  in
  go 0
