(* 4-ary min-heap over parallel int arrays.

   Keys live in [times]/[seqs] and payloads (the simulator's slot
   indices) in [vals], all unboxed ints: a sift compares and moves
   only immediates, so it never calls [caml_modify] or a polymorphic
   comparison, and a freed slot needs no clearing because an int
   keeps nothing alive.  A 4-ary layout halves tree depth versus
   binary, which matters because sift-down dominates pop cost. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable len : int;
}

let create ?(capacity = 16) () =
  let capacity = Int.max 1 capacity in
  { times = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = Array.make capacity 0;
    len = 0 }

let size t = t.len

let is_empty t = t.len = 0

let grow t =
  let extend a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  t.vals <- extend t.vals

let add t ~time ~seq value =
  if t.len = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and vals = t.vals in
  (* Sift the hole up, moving entries down; write once at the end. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pt = times.(parent) and ps = seqs.(parent) in
    if time < pt || (time = pt && seq < ps) then begin
      times.(!i) <- pt;
      seqs.(!i) <- ps;
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  vals.(!i) <- value

let min_time t =
  if t.len = 0 then invalid_arg "Eventqueue.min_time: empty";
  t.times.(0)

let min_seq t =
  if t.len = 0 then invalid_arg "Eventqueue.min_seq: empty";
  t.seqs.(0)

let pop_min t =
  if t.len = 0 then invalid_arg "Eventqueue.pop_min: empty";
  let times = t.times and seqs = t.seqs and vals = t.vals in
  let top = vals.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Move the last entry into the root hole and sift it down. *)
    let time = times.(n) and seq = seqs.(n) and v = vals.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let base = (4 * !i) + 1 in
      if base >= n then moving := false
      else begin
        let best = ref base in
        let bt = ref times.(base) and bs = ref seqs.(base) in
        let last = Int.min (base + 3) (n - 1) in
        for c = base + 1 to last do
          let ct = times.(c) in
          if ct < !bt || (ct = !bt && seqs.(c) < !bs) then begin
            best := c;
            bt := ct;
            bs := seqs.(c)
          end
        done;
        if !bt < time || (!bt = time && !bs < seq) then begin
          times.(!i) <- !bt;
          seqs.(!i) <- !bs;
          vals.(!i) <- vals.(!best);
          i := !best
        end
        else moving := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    vals.(!i) <- v
  end;
  top
