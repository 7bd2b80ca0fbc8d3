(* simlint — the repo's determinism & hot-path lint over the build's
   typedtrees.  See [simlint --list-rules] and DESIGN.md "Static
   analysis: simlint". *)

let () = exit (Lint.Driver.main ~load:Lint.Cmt_loader.load Sys.argv)
