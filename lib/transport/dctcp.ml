(* DCTCP as a first-class transport: a thin veneer over {!Tcp} with
   the DCTCP congestion controller preselected, so experiments can
   name it next to Tcp/Udp/Mtp in transport line-ups. *)

type t = Tcp.t

type conn = Tcp.conn

let default_g = 0.0625 (* 1/16, per RFC 8257 *)

let attach ?(g = default_g) ?mss ?rcv_buf ?snd_buf ?init_cwnd_pkts ?min_rto
    ?max_retries ?entity host =
  Tcp.attach ~cc:(Tcp.Dctcp { g }) ?mss ?rcv_buf ?snd_buf ?init_cwnd_pkts
    ?min_rto ?max_retries ?entity host

module Messaging = struct
  include Tcp.Messaging

  let id = "dctcp"
end
