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
  mutable ring : record_ array; (* doubles up to [cap], then is reused *)
  cap : int;
  mutable next : int;   (* ring slot the next event writes *)
  mutable total : int;  (* events ever emitted *)
}

let blank () =
  { at = 0; kind = Drop; point = ""; uid = -1; src = -1; dst = -1; size = 0;
    a = 0; b = 0 }

let create ?(capacity = 65_536) () =
  if capacity <= 0 then invalid_arg "Events.create: capacity";
  { ring = Array.init (Int.min capacity 64) (fun _ -> blank ());
    cap = capacity; next = 0; total = 0 }

let capacity t = t.cap

(* Rings start small, so a staged context of a quiet job or partition
   holds few records; from the first wrap on, [next] stays below
   [cap] = the ring's length and this never runs. *)
let grow t =
  let old = t.ring in
  let n = Array.length old in
  t.ring <-
    Array.init (Int.min t.cap (2 * n)) (fun i ->
        if i < n then old.(i) else blank ())

(* All arguments are immediates (or an already-retained string), so
   once the ring is at capacity an emission is nine stores into a
   recycled record: no allocation on the hot path. *)
let emit t ~at ~kind ~point ~uid ~src ~dst ~size ~a ~b =
  if t.next = Array.length t.ring then grow t;
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
  t.next <- (t.next + 1) mod t.cap;
  t.total <- t.total + 1

let total t = t.total

let retained t = Int.min t.total t.cap

let dropped t = t.total - retained t

(* Oldest-first iteration over the retained window. *)
let iter t f =
  let cap = t.cap in
  let n = retained t in
  let start = if t.total <= cap then 0 else t.next in
  for i = 0 to n - 1 do
    f t.ring.((start + i) mod cap)
  done

(* The last [cap] events of a stream are the last [cap] of its last
   [cap] ones, so replaying [from]'s window and counting what it lost
   leaves [t] as if it had seen [from]'s whole stream. *)
let absorb t ~from =
  if capacity from <> capacity t then
    invalid_arg "Events.absorb: capacities differ";
  iter from (fun r ->
      emit t ~at:r.at ~kind:r.kind ~point:r.point ~uid:r.uid ~src:r.src
        ~dst:r.dst ~size:r.size ~a:r.a ~b:r.b);
  t.total <- t.total + dropped from;
  from.next <- 0;
  from.total <- 0
