(* DCTCP as a first-class transport: a thin veneer over {!Tcp} with
   the DCTCP congestion controller preselected, so experiments can
   name it next to Tcp/Udp/Mtp in transport line-ups. *)

type t = Tcp.t

type conn = Tcp.conn

let attach ?snd_buf ?min_rto ?entity host =
  Tcp.attach ~cc:Tcp.Dctcp ?snd_buf ?min_rto ?entity host

module Messaging = struct
  include Tcp.Messaging

  let id = "dctcp"
end
