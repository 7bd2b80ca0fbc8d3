(** DCTCP: {!Tcp} with the ECN-proportional congestion controller
    preselected (RFC 8257).  All connection operations are the plain
    {!Tcp} ones — the types are shared. *)

type t = Tcp.t

type conn = Tcp.conn

val attach :
  ?snd_buf:int -> ?min_rto:Engine.Time.t -> ?entity:int -> Netsim.Host.t -> t
(** {!Tcp.attach} with [cc = Dctcp]. *)

module Messaging : Netsim.Transport_intf.S with type t = t
