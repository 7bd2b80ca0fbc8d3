type t = {
  name : string;
  enqueue : Packet.t -> bool;
  dequeue : unit -> Packet.t;
  enqueue_burst : Pktring.t -> rejects:Pktring.t -> int;
  dequeue_burst : Pktring.t -> max:int -> int;
  byte_length : unit -> int;
  pkt_length : unit -> int;
  drops : unit -> int;
  marks : unit -> int;
  trims : unit -> int;
  max_bytes_seen : unit -> int;
}

module Itbl = Hashtbl.Make (Int)

(* A byte-counting FIFO used as the building block of every policy.
   Backed by a packet ring, and [pop] answers [Packet.none] when empty
   instead of boxing its result in an option, so enqueue/dequeue
   allocate nothing (the [Queue.t] it replaces allocated a cell per
   push). *)
module F = struct
  type fifo = {
    ring : Pktring.t;
    mutable bytes : int;
    mutable max_bytes : int;
  }

  let create () = { ring = Pktring.create (); bytes = 0; max_bytes = 0 }

  let len f = Pktring.length f.ring

  let bytes f = f.bytes

  let push f p =
    Pktring.push f.ring p;
    f.bytes <- f.bytes + p.Packet.size;
    if f.bytes > f.max_bytes then f.max_bytes <- f.bytes

  let pop f =
    if Pktring.is_empty f.ring then Packet.none
    else begin
      let p = Pktring.pop f.ring in
      f.bytes <- f.bytes - p.Packet.size;
      p
    end
end

(* Burst ops, built from the per-packet closures so marking, trimming
   and refusal decisions stay exactly per-packet. *)
let burst_of_enqueue enqueue src ~rejects =
  let accepted = ref 0 in
  while not (Pktring.is_empty src) do
    let p = Pktring.pop src in
    if enqueue p then incr accepted else Pktring.push rejects p
  done;
  !accepted

let burst_of_dequeue dequeue dst ~max =
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < max do
    let p = dequeue () in
    if p == Packet.none then continue := false
    else begin
      Pktring.push dst p;
      incr n
    end
  done;
  !n

let fifo ~cap_pkts () =
  let f = F.create () in
  let drops = ref 0 in
  let enqueue p =
    if F.len f >= cap_pkts then begin
      incr drops;
      false
    end
    else begin
      F.push f p;
      true
    end
  in
  let dequeue () = F.pop f in
  { name = "fifo";
    enqueue;
    dequeue;
    enqueue_burst = burst_of_enqueue enqueue;
    dequeue_burst = burst_of_dequeue dequeue;
    byte_length = (fun () -> F.bytes f);
    pkt_length = (fun () -> F.len f);
    drops = (fun () -> !drops);
    marks = (fun () -> 0);
    trims = (fun () -> 0);
    max_bytes_seen = (fun () -> f.F.max_bytes) }

let ecn ~cap_pkts ~mark_threshold () =
  let inner = fifo ~cap_pkts () in
  let marks = ref 0 in
  let enqueue p =
    if inner.pkt_length () >= mark_threshold && not (Packet.ecn_ce p) then begin
      Packet.set_ecn_ce p;
      incr marks
    end;
    inner.enqueue p
  in
  { inner with name = "ecn"; enqueue;
    enqueue_burst = burst_of_enqueue enqueue; marks = (fun () -> !marks) }

let red ~rng ~cap_pkts ~min_th ~max_th () =
  if not (0 <= min_th && min_th < max_th && max_th <= cap_pkts) then
    invalid_arg "Qdisc.red: thresholds";
  let weight = 0.002 and max_p = 0.1 in
  let inner = fifo ~cap_pkts () in
  let marks = ref 0 in
  let avg = ref 0.0 in
  let enqueue p =
    let depth = float_of_int (inner.pkt_length ()) in
    avg := ((1.0 -. weight) *. !avg) +. (weight *. depth);
    let mark_probability =
      if !avg < float_of_int min_th then 0.0
      else if !avg >= float_of_int max_th then 1.0
      else
        max_p
        *. (!avg -. float_of_int min_th)
        /. float_of_int (max_th - min_th)
    in
    if
      mark_probability > 0.0
      && (not (Packet.ecn_ce p))
      && Engine.Rng.float rng < mark_probability
    then begin
      Packet.set_ecn_ce p;
      incr marks
    end;
    inner.enqueue p
  in
  { inner with name = "red"; enqueue;
    enqueue_burst = burst_of_enqueue enqueue; marks = (fun () -> !marks) }

(* Bytes a trimmed packet keeps: its headers, NDP-style. *)
let trim_header_size = 64

let trimming ~cap_pkts () =
  let data = F.create () in
  let headers = F.create () in
  let drops = ref 0 in
  let trims = ref 0 in
  let header_cap = 8 * cap_pkts in
  let enqueue p =
    if F.len data < cap_pkts then begin
      F.push data p;
      true
    end
    else if F.len headers < header_cap then begin
      Packet.set_trimmed p;
      p.Packet.size <- Int.min p.Packet.size trim_header_size;
      incr trims;
      F.push headers p;
      true
    end
    else begin
      incr drops;
      false
    end
  in
  let dequeue () =
    let p = F.pop headers in
    if p != Packet.none then p else F.pop data
  in
  { name = "trimming";
    enqueue;
    dequeue;
    enqueue_burst = burst_of_enqueue enqueue;
    dequeue_burst = burst_of_dequeue dequeue;
    byte_length = (fun () -> F.bytes data + F.bytes headers);
    pkt_length = (fun () -> F.len data + F.len headers);
    drops = (fun () -> !drops);
    marks = (fun () -> 0);
    trims = (fun () -> !trims);
    max_bytes_seen = (fun () -> data.F.max_bytes) }

let wrr ?mark_threshold ~classify ~weights ~cap_pkts () =
  let n = Array.length weights in
  assert (n > 0);
  let queues = Array.init n (fun _ -> F.create ()) in
  let deficits = Array.make n 0 in
  let quantum = 1514 in
  let drops = ref 0 in
  let marks = ref 0 in
  let current = ref 0 in
  let enqueue p =
    let c = Int.max 0 (Int.min (n - 1) (classify p)) in
    let f = queues.(c) in
    (match mark_threshold with
    | Some k when F.len f >= k && not (Packet.ecn_ce p) ->
      Packet.set_ecn_ce p;
      incr marks
    | Some _ | None -> ());
    if F.len f >= cap_pkts then begin
      incr drops;
      false
    end
    else begin
      F.push f p;
      true
    end
  in
  (* Deficit round robin: visit classes cyclically, topping up the
     deficit by weight*quantum on each visit, sending while the head
     packet fits the deficit. *)
  let dequeue () =
    let total = Array.fold_left (fun acc f -> acc + F.len f) 0 queues in
    if total = 0 then Packet.none
    else begin
      let result = ref Packet.none in
      while !result == Packet.none do
        let c = !current in
        let f = queues.(c) in
        if F.len f = 0 then begin
          deficits.(c) <- 0;
          current := (c + 1) mod n
        end
        else begin
          let head = Pktring.peek f.F.ring in
          if head.Packet.size <= deficits.(c) then begin
            deficits.(c) <- deficits.(c) - head.Packet.size;
            result := F.pop f
          end
          else begin
            deficits.(c) <- deficits.(c) + (weights.(c) * quantum);
            current := (c + 1) mod n
          end
        end
      done;
      !result
    end
  in
  let sum get = Array.fold_left (fun acc f -> acc + get f) 0 queues in
  { name = "wrr";
    enqueue;
    dequeue;
    enqueue_burst = burst_of_enqueue enqueue;
    dequeue_burst = burst_of_dequeue dequeue;
    byte_length = (fun () -> sum F.bytes);
    pkt_length = (fun () -> sum F.len);
    drops = (fun () -> !drops);
    marks = (fun () -> !marks);
    trims = (fun () -> 0);
    max_bytes_seen = (fun () -> sum (fun f -> f.F.max_bytes)) }

let fair_mark ~classify ?shares ~cap_pkts ~mark_threshold () =
  let inner = fifo ~cap_pkts () in
  let marks = ref 0 in
  (* Arrival-rate share estimation over a ring of recent arrivals:
     robust against window bursts, unlike instantaneous occupancy. *)
  let history = 512 in
  let ring = Array.make history (-1) in
  let ring_counts = Itbl.create 8 in
  let ring_pos = ref 0 in
  let ring_filled = ref 0 in
  let count c =
    match Itbl.find_opt ring_counts c with Some n -> n | None -> 0
  in
  let note_arrival c =
    let old = ring.(!ring_pos) in
    if old >= 0 then begin
      let n = count old - 1 in
      if n <= 0 then Itbl.remove ring_counts old
      else Itbl.replace ring_counts old n
    end;
    ring.(!ring_pos) <- c;
    Itbl.replace ring_counts c (count c + 1);
    ring_pos := (!ring_pos + 1) mod history;
    if !ring_filled < history then incr ring_filled
  in
  let share_of c =
    match shares with
    | Some arr when c >= 0 && c < Array.length arr -> arr.(c)
    | Some _ | None ->
      let active = Int.max 1 (Itbl.length ring_counts) in
      1.0 /. float_of_int active
  in
  let enqueue p =
    let c = classify p in
    note_arrival c;
    let depth = inner.pkt_length () in
    if depth >= mark_threshold && not (Packet.ecn_ce p) then begin
      let mine = float_of_int (count c) in
      let allowed =
        share_of c *. float_of_int (Int.max 1 !ring_filled) *. 1.1
      in
      if mine > allowed then begin
        Packet.set_ecn_ce p;
        incr marks
      end
    end;
    inner.enqueue p
  in
  { inner with name = "fair_mark"; enqueue;
    enqueue_burst = burst_of_enqueue enqueue; marks = (fun () -> !marks) }

let with_hooks ~on_enqueue inner =
  let enqueue p =
    if inner.enqueue p then begin
      on_enqueue p;
      true
    end
    else false
  in
  { inner with enqueue; enqueue_burst = burst_of_enqueue enqueue }
