(** A data-mutation offload: in-flight compression (paper §2.2,
    "Data Mutation").

    The switch rewrites each data packet of matching messages, scaling
    the payload by a compression factor and rewriting the header's
    message length coherently.  With TCP this is impossible without
    termination (sequence numbers would break); with MTP the receiver
    reassembles by (message id, packet number) and the sender's
    acknowledgement state is untouched.

    The rewrite assumes the sender's standard packetization (all
    packets 1440 bytes except the last), which is announced by the
    message geometry. *)

type t

val install :
  Netsim.Switch.t ->
  dst_port:int ->
  factor:float ->
  unit ->
  t
(** Compress payloads of data packets whose destination port is
    [dst_port] by [factor] (0 < factor <= 1). *)

val compressed_len : orig:int -> factor:float -> int
(** Per-packet compressed size ([>= 1] for non-empty payloads). *)

val compressed_msg_len :
  msg_len:int -> msg_pkts:int -> mtu_payload:int -> factor:float -> int
(** Total compressed message size implied by the rewrite. *)

val packets_rewritten : t -> int
