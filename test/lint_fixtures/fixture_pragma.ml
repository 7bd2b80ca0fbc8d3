(* Pragma fixture: the first site is suppressed, the second is not. *)
let quiet tbl =
  (* simlint: allow D001 — fixture demonstrates suppression *)
  Hashtbl.iter (fun _ _ -> ()) tbl

let loud tbl = Hashtbl.fold (fun _ _ n -> n + 1) tbl 0
