type session = { front : Tcp.conn; up : Tcp.conn }

type t = {
  relay_cap : int;
  mutable relays : session list;
  mutable relayed : int;
  mutable max_occ : int;
  mutable n_sessions : int;
}

(* A real TCP send buffer retains bytes until they are acknowledged, so
   the proxy's memory holds unread front bytes plus both the unsent and
   the in-flight portion of the upstream stream. *)
let session_occupancy s =
  Tcp.rx_buffered s.front + Tcp.send_buffered s.up + Tcp.unacked s.up

let occupancy t =
  List.fold_left (fun acc s -> acc + session_occupancy s) 0 t.relays

let note t =
  let occ = occupancy t in
  if occ > t.max_occ then t.max_occ <- occ

(* Move bytes from the front receive buffer into the upstream send
   buffer, bounded by the relay capacity. *)
let pump t s =
  let room = t.relay_cap - Tcp.send_buffered s.up in
  let n = min (Tcp.rx_buffered s.front) room in
  if n > 0 then begin
    Tcp.read s.front n;
    Tcp.send s.up n;
    t.relayed <- t.relayed + n
  end;
  note t

let create stack ~front_port ~server ~server_port ?front_rcv_buf ?relay_cap
    () =
  let relay_cap = match relay_cap with Some c -> c | None -> max_int / 4 in
  let t =
    { relay_cap; relays = []; relayed = 0; max_occ = 0;
      n_sessions = 0 }
  in
  Tcp.listen stack ~port:front_port ?rcv_buf:front_rcv_buf (fun front ->
      t.n_sessions <- t.n_sessions + 1;
      Tcp.set_auto_read front false;
      let up = Tcp.connect stack ~dst:server ~dst_port:server_port () in
      let s = { front; up } in
      t.relays <- s :: t.relays;
      Tcp.set_on_data front (fun _ _ -> pump t s);
      Tcp.set_on_drain up (fun _ -> pump t s);
      Tcp.set_on_peer_fin front (fun _ ->
          (* Client finished: flush whatever remains, then close
             upstream once drained. *)
          pump t s;
          if Tcp.rx_buffered s.front = 0 && Tcp.send_buffered s.up = 0 then
            Tcp.close s.up
          else
            Tcp.set_on_drain up (fun _ ->
                pump t s;
                if Tcp.rx_buffered s.front = 0 && Tcp.send_buffered s.up = 0
                then Tcp.close s.up)));
  t

let max_occupancy t = t.max_occ

let relayed_bytes t = t.relayed

let sessions t = t.n_sessions

(* ------------------------------------------------------------------ *)
(* Unified transport interface                                          *)

type via = {
  v_stack : Tcp.t;
  v_proxy : Netsim.Packet.addr;
  v_proxy_port : int;
}

let via stack ~proxy ~proxy_port = { v_stack = stack; v_proxy = proxy; v_proxy_port = proxy_port }

module Messaging = struct
  type t = via

  let id = "tcp-proxy"

  let listen v ~port ?on_data ?on_message () =
    Tcp.Messaging.listen v.v_stack ~port ?on_data ?on_message ()

  (* The destination is fixed at the proxy front: the proxy relays to
     its configured server, so [dst]/[dst_port] are ignored. *)
  let send_message v ~dst:_ ~dst_port:_ ?on_complete ~size () =
    Tcp.Messaging.send_message v.v_stack ~dst:v.v_proxy
      ~dst_port:v.v_proxy_port ?on_complete ~size ()

  let stats v = Tcp.Messaging.stats v.v_stack
end
