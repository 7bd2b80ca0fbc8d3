(* D001 fixture: hash-order iteration over Hashtbl and a functor table. *)
let total tbl =
  let n = ref 0 in
  Hashtbl.iter (fun _ v -> n := !n + v) tbl;
  !n

let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

module Itbl = Hashtbl.Make (Int)
let sum tbl = Itbl.fold (fun _ v n -> n + v) tbl 0

(* Through module aliases: an alias names the module it aliases. *)
module H = Hashtbl
let size tbl = H.fold (fun _ _ n -> n + 1) tbl 0
let clear tbl = let module L = Hashtbl in L.iter (fun _ _ -> ()) tbl
module I = Itbl
let isum tbl = I.fold (fun _ v n -> n + v) tbl 0
