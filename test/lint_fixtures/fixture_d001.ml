(* D001 fixture: hash-order iteration over Hashtbl and a functor table. *)
let total tbl =
  let n = ref 0 in
  Hashtbl.iter (fun _ v -> n := !n + v) tbl;
  !n

let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

module Itbl = Hashtbl.Make (Int)
let sum tbl = Itbl.fold (fun _ v n -> n + v) tbl 0
