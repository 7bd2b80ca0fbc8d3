(* D002 fixture: wall clock and ambient randomness. *)
let wall () = Sys.time ()
let tod () = Unix.gettimeofday ()
let reseed () = Random.self_init ()
let pick n = Random.int n
let who () = (Domain.self () :> int)
let tod' () = let module U = Unix in U.gettimeofday ()
module R = Random
let pick' n = R.int n
