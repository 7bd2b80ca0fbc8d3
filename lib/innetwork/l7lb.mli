(** An application-level (L7) load balancer over MTP (paper Fig. 1
    (2a)).

    Requests arriving on the front port are forwarded, as whole
    messages, to one of several backend replicas; replies relay back to
    the original client.  Because MTP messages are independent,
    different requests of the same client go to different replicas —
    impossible for a TCP pass-through device (paper §2.2).

    Selection policies:
    - [Round_robin];
    - [Least_outstanding]: fewest in-flight requests (join the
      shortest queue);
    - [Ewma_latency]: lowest recent reply latency (C3-style
      load-awareness using the paper's Fig. 1 (3b) feedback). *)

type policy = Round_robin | Least_outstanding | Ewma_latency

type t

val create :
  Mtp.Endpoint.t ->
  port:int ->
  replicas:(Netsim.Packet.addr * int) array ->
  ?policy:policy ->
  unit ->
  t

val relayed_replies : t -> int

val per_replica : t -> int array
(** Total requests sent to each replica. *)
