(** A TCP-terminating proxy (L7 middlebox).

    Accepts client connections on a front port, opens a fresh upstream
    connection per client to the configured server, and relays bytes.
    Two knobs reproduce the paper's Fig. 2 trade-off:

    - [front_rcv_buf]: the receive buffer (hence advertised window) on
      the client side.  Unbounded → the proxy absorbs the rate
      mismatch in its own memory; bounded → clients are throttled via
      zero windows (head-of-line blocking).
    - [relay_cap]: how many bytes the proxy will hold in the upstream
      send buffer before it stops reading from the client. *)

type t

val create :
  Tcp.t ->
  front_port:int ->
  server:Netsim.Packet.addr ->
  server_port:int ->
  ?front_rcv_buf:int ->
  ?relay_cap:int ->
  unit ->
  t
(** Install on the proxy host's TCP stack.  Both byte limits default to
    unbounded. *)

val occupancy : t -> int
(** Bytes currently buffered inside the proxy across all relays (unread
    client bytes + queued upstream bytes). *)

val max_occupancy : t -> int
(** High-watermark of {!occupancy} (sampled at relay events). *)

val relayed_bytes : t -> int

val sessions : t -> int
(** Client connections accepted so far. *)

type via
(** A client's route through a proxy: its own TCP stack plus the
    proxy's front address/port.  Lets proxied TCP be driven through
    the unified transport interface. *)

val via : Tcp.t -> proxy:Netsim.Packet.addr -> proxy_port:int -> via

module Messaging : Netsim.Transport_intf.S with type t = via
(** [send_message] ignores [dst] and goes to the proxy front; the
    proxy relays to its configured server. *)
