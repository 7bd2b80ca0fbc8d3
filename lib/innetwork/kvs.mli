(** A key-value store service over MTP (the backend of the paper's
    Fig. 1 / NetCache scenario).

    Protocol (carried in the header's application words):
    - request: [cookie = 1] (GET), [cookie2 = key], small message;
    - reply:   [cookie = 2], [cookie2 = key], message of the value's
      size, sent to the requester's source port.

    The server models finite capacity: requests are served one at a
    time with a configurable service time, so an overloaded backend
    builds a queue — which is what gives an in-network cache its
    speedup. *)

val op_get : int
val op_reply : int

type server

val server :
  Mtp.Endpoint.t ->
  port:int ->
  ?service_time:Engine.Time.t ->
  value_size:(int -> int) ->
  unit ->
  server
(** Serve GETs on [port].  [service_time] (default 1 us) is the
    per-request processing time; [value_size key] sizes each reply. *)

val requests_served : server -> int

type client

val client : Mtp.Endpoint.t -> client
(** A requester; allocates and binds its reply port. *)

val get :
  client ->
  server:Netsim.Packet.addr ->
  server_port:int ->
  key:int ->
  ?on_reply:(size:int -> latency:Engine.Time.t -> unit) ->
  unit ->
  unit
(** Issue a GET; [on_reply] fires with the value size and the
    request-to-reply latency. *)
