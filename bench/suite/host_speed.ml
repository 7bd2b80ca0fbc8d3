(* The host's speed, read off a fixed piece of work.

   On a shared host the speed drifts, by up to 2x over minutes, and
   every kind of work slows together: over ten runs of one workload, a
   run's wall time and the time of this work in the same run correlated
   at 0.82-0.99.  Timing the work after every repetition and scaling the
   run's host times by [nominal_s] / its median cancels most of that
   drift (bench/suite/README.md has the measurements).

   The work shares no code with the libraries under test, so no change
   to them moves it.  It does what a simulation spends its time on: a
   binary heap used as an event queue, short-lived records, and a hash
   table.  It runs on one domain even for leafspine-par: on that
   workload it cancelled the drift as well as the same work on two
   domains at once did. *)

type cell = { k : int; v : int list }

let heap_size = 4096
let ring_size = 256
let ops = 100_000

let work () =
  (* A sorted array is a min-heap. *)
  let heap = Array.init heap_size (fun i -> i * 16) in
  let ring = Array.make ring_size { k = 0; v = [] } in
  let tbl = Hashtbl.create 65536 in
  let s = ref 12345 and acc = ref 0 in
  for i = 1 to ops do
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    (* Replace the minimum by a later time and sift it down. *)
    let x = heap.(0) + (!s land 0xFFF) in
    let j = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !j) + 1 in
      if l >= heap_size then sifting := false
      else begin
        let c = if l + 1 < heap_size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < x then begin
          heap.(!j) <- heap.(c);
          j := c
        end
        else sifting := false
      end
    done;
    heap.(!j) <- x;
    let r = (!s lsr 4) land (ring_size - 1) in
    acc := !acc + ring.(r).k;
    ring.(r) <- { k = i; v = [ i; x ] };
    let key = !s land 0xFFFF in
    Hashtbl.replace tbl key (i + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  done;
  !acc

(* Seconds [work ()] takes: the median of three, each on a freshly
   collected heap. *)
let sample () =
  let once () =
    Gc.full_major ();
    let t = Span.clock () in
    ignore (Sys.opaque_identity (work ()));
    Span.clock () -. t
  in
  let a = Array.init 3 (fun _ -> once ()) in
  Array.sort compare a;
  a.(1)

(* [sample ()] on the quiet 2-core host the recorded values come from
   (bench/suite/README.md), so scaled times read as seconds on it. *)
let nominal_s = 0.02
