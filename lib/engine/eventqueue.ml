(* 4-ary min-heap over parallel scalar arrays.

   Keys live in [times]/[seqs] (unboxed int arrays) so comparisons
   during sift never touch the payload array and insertion allocates
   nothing.  A 4-ary layout halves tree depth versus binary, which
   matters because sift-down dominates pop cost.  Freed payload slots
   are overwritten with [dummy] so the heap never keeps a popped value
   (and whatever it captures) alive. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = max 1 capacity in
  { times = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = Array.make capacity dummy;
    len = 0;
    dummy }

let size t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0 in
  Array.blit t.times 0 times 0 t.len;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.len;
  let vals = Array.make cap t.dummy in
  Array.blit t.vals 0 vals 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.vals <- vals

let add t ~time ~seq value =
  if t.len = Array.length t.times then grow t;
  (* Sift the hole up, moving entries down; write once at the end. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pt = t.times.(parent) and ps = t.seqs.(parent) in
    if time < pt || (time = pt && seq < ps) then begin
      t.times.(!i) <- pt;
      t.seqs.(!i) <- ps;
      t.vals.(!i) <- t.vals.(parent);
      i := parent
    end
    else moving := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- value

let min_time t =
  if t.len = 0 then invalid_arg "Eventqueue.min_time: empty";
  t.times.(0)

let min_seq t =
  if t.len = 0 then invalid_arg "Eventqueue.min_seq: empty";
  t.seqs.(0)

let pop_min t =
  if t.len = 0 then invalid_arg "Eventqueue.pop_min: empty";
  let top = t.vals.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n = 0 then t.vals.(0) <- t.dummy
  else begin
    (* Move the last entry into the root hole and sift it down. *)
    let time = t.times.(n) and seq = t.seqs.(n) and v = t.vals.(n) in
    t.vals.(n) <- t.dummy;
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let base = (4 * !i) + 1 in
      if base >= n then moving := false
      else begin
        let best = ref base in
        let bt = ref t.times.(base) and bs = ref t.seqs.(base) in
        let last = min (base + 3) (n - 1) in
        for c = base + 1 to last do
          let ct = t.times.(c) in
          if ct < !bt || (ct = !bt && t.seqs.(c) < !bs) then begin
            best := c;
            bt := ct;
            bs := t.seqs.(c)
          end
        done;
        if !bt < time || (!bt = time && !bs < seq) then begin
          t.times.(!i) <- !bt;
          t.seqs.(!i) <- !bs;
          t.vals.(!i) <- t.vals.(!best);
          i := !best
        end
        else moving := false
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.vals.(!i) <- v
  end;
  top
