(** The bulk-data layer (paper §3.1.2, second use case).

    Applications with large blobs do not need message atomicity; MTP
    suggests sending each packet as its own message so the network can
    multiplex and reorder freely, with a thin layer below the
    application reassembling the blob.  Chunks carry the blob id and
    total size in the application words of the header; the receiver
    completes when all bytes have arrived, in any order. *)

type receiver

val receiver :
  Endpoint.t ->
  port:int ->
  (src:Netsim.Packet.addr -> blob_id:int -> size:int -> unit) ->
  receiver
(** Bind the port and reassemble incoming blobs; the callback fires on
    completion of each blob. *)

val blobs_completed : receiver -> int

val send :
  Endpoint.t ->
  dst:Netsim.Packet.addr ->
  dst_port:int ->
  blob_id:int ->
  size:int ->
  ?chunk:int ->
  ?on_complete:(Engine.Time.t -> unit) ->
  unit ->
  unit
(** Split [size] bytes into independent messages of [chunk] bytes
    (default: one packet each) and send them all.  [on_complete] fires
    when every chunk has been acknowledged. *)
