(* Growable ring buffer of packets: the FIFO used by qdiscs and link
   in-flight tracking.  Unlike [Queue.t] it allocates nothing per
   push/pop, and vacated slots are overwritten with [Packet.none] so
   the ring never keeps a departed packet alive. *)

type t = {
  mutable buf : Packet.t array;
  mutable head : int;
  mutable len : int;
}

let create ?(capacity = 16) () =
  { buf = Array.make (Int.max 1 capacity) Packet.none; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) Packet.none in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) mod cap)
  done;
  t.buf <- buf;
  t.head <- 0

let push t p =
  if t.len = Array.length t.buf then grow t;
  let i = t.head + t.len in
  let cap = Array.length t.buf in
  t.buf.(if i >= cap then i - cap else i) <- p;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Pktring.pop: empty";
  let p = t.buf.(t.head) in
  t.buf.(t.head) <- Packet.none;
  let h = t.head + 1 in
  t.head <- (if h = Array.length t.buf then 0 else h);
  t.len <- t.len - 1;
  p

let peek t =
  if t.len = 0 then invalid_arg "Pktring.peek: empty";
  t.buf.(t.head)
