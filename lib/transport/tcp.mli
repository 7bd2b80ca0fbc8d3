(** A mechanism-faithful TCP for the simulator.

    Models the pieces of TCP the paper's experiments depend on:

    - byte-stream sequence numbers, cumulative ACKs, out-of-order
      reassembly (so packet spraying hurts via dup-ACKs);
    - SYN/SYN-ACK connection establishment (so one-message-per-flow
      pays a round trip and restarts from slow start);
    - Reno congestion control — slow start, congestion avoidance, fast
      retransmit on three duplicate ACKs, NewReno partial-ACK recovery,
      RTO with exponential backoff;
    - DCTCP — per-packet CE echo and alpha-proportional window
      reduction once per window of data;
    - a finite receive buffer with advertised windows, window updates
      and zero-window probes (so a terminating proxy exhibits the
      buffering/HOL-blocking trade-off of Fig. 2).

    No actual payload bytes are carried; all buffers are byte counts. *)

type cc = Reno | Dctcp
(** Congestion controller.  DCTCP's alpha EWMA gain is 1/16, as in the
    paper and RFC 8257. *)

type t
(** A host's TCP stack. *)

type conn

val attach :
  ?cc:cc ->
  ?snd_buf:int ->
  ?min_rto:Engine.Time.t ->
  ?max_retries:int ->
  ?entity:int ->
  Netsim.Host.t ->
  t
(** Register a stack with a host's dispatcher.  It claims SYNs for its
    listeners and segments of its connections, and sends every segment
    from the host's pool.  Segments carry 1460
    payload bytes, the initial window is 10 segments, and connections
    get an unbounded receive buffer unless {!listen} sets one;
    [snd_buf] (default unbounded) caps bytes in flight like a kernel's
    socket send buffer — without it, slow start over a deep local
    queue can overshoot catastrophically; [max_retries] (default 15, the Linux
    [tcp_retries2] value) aborts a connection after that many
    consecutive RTOs with no forward progress ({!set_on_error} /
    {!aborted}); [entity] tags every packet for per-entity network
    policies. *)

val listen : t -> port:int -> ?rcv_buf:int -> (conn -> unit) -> unit
(** Accept connections on [port]; the callback fires when the SYN
    arrives.  [rcv_buf] overrides the stack default for accepted
    connections (the knob a bounded proxy turns). *)

val connect :
  t ->
  dst:Netsim.Packet.addr ->
  dst_port:int ->
  ?src_port:int ->
  unit ->
  conn
(** Active open with the stack's receive buffer; data written with
    {!send} flows once the handshake completes.  [src_port] overrides
    the ephemeral allocation (e.g. to model randomized ports for ECMP
    hashing). *)

(** {1 Data transfer} *)

val send : conn -> int -> unit
(** Append [n] bytes to the connection's send buffer. *)

val close : conn -> unit
(** Half-close after all buffered data: sends FIN once the buffer
    drains; {!set_on_close} fires when the FIN is acknowledged. *)

val stream :
  t ->
  dst:Netsim.Packet.addr ->
  dst_port:int ->
  ?chunk:int ->
  unit ->
  conn
(** A long-lived backlogged connection: the send buffer is topped up
    with [chunk] bytes (default 1 MB) whenever it drains — the
    persistent flows of Figs. 2 and 3. *)

val read : conn -> int -> unit
(** Consume [n] bytes from the receive buffer, opening the advertised
    window (a window-update ACK is sent when the window reopens). *)

val set_auto_read : conn -> bool -> unit
(** When [true] (default), delivered bytes are consumed immediately —
    the infinite-application model. *)

val set_on_data : conn -> (conn -> int -> unit) -> unit
(** Called with each chunk of newly in-order-delivered bytes (before
    auto-read consumes them). *)

val set_on_close : conn -> (conn -> unit) -> unit
(** Our FIN was acknowledged: all sent data reached the peer. *)

val set_on_peer_fin : conn -> (conn -> unit) -> unit
(** The peer's FIN arrived in order: the incoming stream is complete. *)

val set_on_drain : conn -> (conn -> unit) -> unit
(** Called whenever the send buffer shrinks (bytes left the
    application buffer for the wire) — back-pressure signal for
    relaying applications such as the proxy. *)

val set_on_error : conn -> (conn -> unit) -> unit
(** The connection was aborted after [max_retries] consecutive RTOs
    (the simulator's ETIMEDOUT). *)

(** {1 Inspection} *)

val bytes_delivered : conn -> int
(** Total in-order bytes delivered to the receive buffer. *)

val rx_buffered : conn -> int
(** Delivered-but-unread bytes (what a bounded proxy buffer holds). *)

val send_buffered : conn -> int
(** Bytes written but not yet transmitted for the first time. *)

val unacked : conn -> int
(** Bytes in flight (transmitted, not yet cumulatively acked). *)

val cwnd_bytes : conn -> int
val ssthresh_bytes : conn -> int
val retransmits : conn -> int
val timeouts : conn -> int
val is_open : conn -> bool

val aborted : conn -> bool
(** Whether the connection died of max-retry exhaustion. *)

val mss : conn -> int

val stall_time : conn -> Engine.Time.t
(** Cumulative time the sender spent blocked on a closed peer window
    (receive-window head-of-line blocking, Fig. 2). *)

module Messaging : Netsim.Transport_intf.S with type t = t
(** Drive this stack through the unified transport interface:
    [send_message] opens a connection per message and closes it after
    the last byte.  A backlogged connection is {!stream}. *)
