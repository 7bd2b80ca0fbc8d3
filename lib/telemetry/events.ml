type kind =
  | Enqueue
  | Dequeue
  | Drop
  | Mark
  | Trim
  | Send
  | Ack
  | Rto
  | Steer
  | Exclude
  | Complete
  | Fail

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Drop -> "drop"
  | Mark -> "mark"
  | Trim -> "trim"
  | Send -> "send"
  | Ack -> "ack"
  | Rto -> "rto"
  | Steer -> "steer"
  | Exclude -> "exclude"
  | Complete -> "complete"
  | Fail -> "fail"

(* Per-kind meaning of the generic [a]/[b] cells; the exporters use
   these as field names so the JSONL/CSV stays self-describing. *)
let ab_names = function
  | Enqueue | Dequeue | Drop | Mark | Trim -> ("qpkts", "qbytes")
  | Send -> ("seq", "cwnd")
  | Ack -> ("acked", "cwnd")
  | Rto -> ("strikes", "cwnd")
  | Steer -> ("path", "tc")
  | Exclude -> ("excluded", "tc")
  | Complete | Fail -> ("msg", "latency_us")

type record_ = {
  mutable at : Engine.Time.t;
  mutable kind : kind;
  mutable point : string; (* component name; callers pass a retained string *)
  mutable uid : int;
  mutable src : int;
  mutable dst : int;
  mutable size : int;
  mutable a : int;
  mutable b : int;
}

type t = {
  ring : record_ array; (* preallocated; emission mutates in place *)
  mutable next : int;   (* ring slot the next event writes *)
  mutable total : int;  (* events ever emitted *)
}

let blank () =
  { at = 0; kind = Drop; point = ""; uid = -1; src = -1; dst = -1; size = 0;
    a = 0; b = 0 }

let create ?(capacity = 65_536) () =
  if capacity <= 0 then invalid_arg "Events.create: capacity";
  { ring = Array.init capacity (fun _ -> blank ()); next = 0; total = 0 }

let capacity t = Array.length t.ring

(* All arguments are immediates (or an already-retained string), so an
   emission is nine stores into a recycled record: no allocation on
   the hot path, whether or not the ring later wraps. *)
let emit t ~at ~kind ~point ~uid ~src ~dst ~size ~a ~b =
  let r = t.ring.(t.next) in
  r.at <- at;
  r.kind <- kind;
  r.point <- point;
  r.uid <- uid;
  r.src <- src;
  r.dst <- dst;
  r.size <- size;
  r.a <- a;
  r.b <- b;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1

let total t = t.total

let retained t = min t.total (Array.length t.ring)

let dropped t = t.total - retained t

(* Oldest-first iteration over the retained window. *)
let iter t f =
  let cap = Array.length t.ring in
  let n = retained t in
  let start = if t.total <= cap then 0 else t.next in
  for i = 0 to n - 1 do
    f t.ring.((start + i) mod cap)
  done
