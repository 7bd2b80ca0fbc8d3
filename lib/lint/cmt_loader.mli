(** Discover and read the [.cmt]/[.cmti] files dune produced under
    [root/_build/default]. *)

val load : root:string -> dirs:string list -> (Typed.program, string) result
(** The implementations and interfaces for sources in [dirs], and
    every implementation of the build as the reference world;
    [Error] when the build is missing or a cmt is unreadable. *)
