(** DCTCP: {!Tcp} with the ECN-proportional congestion controller
    preselected (RFC 8257).  All connection operations are the plain
    {!Tcp} ones — the types are shared. *)

type t = Tcp.t

type conn = Tcp.conn

val default_g : float
(** Alpha EWMA gain, 1/16. *)

val attach :
  ?g:float ->
  ?mss:int ->
  ?rcv_buf:int ->
  ?snd_buf:int ->
  ?init_cwnd_pkts:int ->
  ?min_rto:Engine.Time.t ->
  ?max_retries:int ->
  ?entity:int ->
  Netsim.Host.t ->
  t
(** {!Tcp.attach} with [cc = Dctcp {g}]; [g] defaults to
    {!default_g}. *)

module Messaging : Netsim.Transport_intf.S with type t = t
