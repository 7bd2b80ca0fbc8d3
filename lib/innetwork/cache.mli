(** A NetCache-style in-switch hot-object cache (paper Fig. 1 (1)).

    Because every MTP packet announces its message identity and
    application words, the switch can recognize a GET request in
    flight, answer cache hits directly — bypassing the backend — and
    learn values by watching replies stream past.  This is exactly the
    interposition that TCP's stream abstraction forbids (paper §2.2,
    Inter-Message Independence).

    Cached values are answered as single-message replies crafted by the
    switch with the backend's source address, so clients are oblivious.
    Hit replies are fire-and-forget (the switch keeps no retransmission
    state); in the lossless-to-client topologies used here that is
    safe, and a lost reply would surface as a client-level retry. *)

type t

val install :
  Netsim.Switch.t ->
  server:Netsim.Packet.addr ->
  server_port:int ->
  client_port_of:(Netsim.Packet.addr -> int) ->
  ?capacity:int ->
  unit ->
  t
(** Interpose on GETs addressed to [server:server_port].
    [client_port_of] maps a client address to the switch port leading
    back to it (for injecting hit replies).  [capacity] (default 64)
    bounds cached keys with LRU eviction — switches have small
    memories.  Hit replies go out in 1440-byte packets. *)

val put : t -> key:int -> size:int -> unit
(** Pre-populate (controller-installed hot keys). *)

val hits : t -> int
val misses : t -> int
val learned : t -> int
(** Values learned by observing replies. *)

val occupancy : t -> int
