(* Pragma on the very last line of the file, no trailing newline:
   the scanner must still see it.  Line 3 fires D001 as a control. *)
let loud tbl = Hashtbl.fold (fun _ _ n -> n + 1) tbl 0

let quiet tbl = Hashtbl.iter (fun _ _ -> ()) tbl (* simlint: allow D001 — eof pragma fixture *)