(* Inline suppressions.  A comment that reads [simlint: allow]
   followed by a rule id and a reason, such as the one above [quiet]
   in test/lint_fixtures/fixture_pragma.ml, suppresses the named rule
   on the pragma's own line and on the line immediately below it, so
   it can sit at the end of the offending line or on its own line just
   above.  The reason text is free-form but expected; a pragma with no
   reason still parses (the reviewer, not the tool, enforces taste).
   Scanning is textual because the OCaml parser discards comments.

   One line may carry several pragmas, each naming its own rule, and a
   line missing its trailing newline (end of file) scans like any
   other line.  Both behaviors are pinned by fixtures.

   Every pragma records whether it covered a finding, so the driver
   can report the ones that suppress nothing. *)

type pragma = { line : int; rule : string; mutable used : bool }
type t = pragma list

let marker = "simlint: allow"

let is_rule_char c =
  (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* Every rule token following an occurrence of [marker] in [line]. *)
let rules_in line =
  let mlen = String.length marker in
  let llen = String.length line in
  let token_at start =
    let i = ref start in
    while !i < llen && line.[!i] = ' ' do incr i done;
    let j = ref !i in
    while !j < llen && is_rule_char line.[!j] do incr j done;
    if !j > !i then Some (String.sub line !i (!j - !i)) else None
  in
  let rec find i acc =
    if i + mlen > llen then List.rev acc
    else if String.sub line i mlen = marker then
      let acc =
        match token_at (i + mlen) with Some r -> r :: acc | None -> acc
      in
      find (i + mlen) acc
    else find (i + 1) acc
  in
  find 0 []

let scan src =
  let out = ref [] in
  let line = ref 1 in
  let start = ref 0 in
  let flush stop =
    let text = String.sub src !start (stop - !start) in
    List.iter
      (fun rule -> out := { line = !line; rule; used = false } :: !out)
      (rules_in text);
    start := stop + 1;
    incr line
  in
  String.iteri (fun i c -> if c = '\n' then flush i) src;
  if !start < String.length src then flush (String.length src);
  List.rev !out

let suppressed t ~line ~rule =
  List.fold_left
    (fun hit p ->
      if p.rule = rule && (p.line = line || p.line = line - 1) then begin
        p.used <- true;
        true
      end
      else hit)
    false t

let unused t =
  List.filter_map (fun p -> if p.used then None else Some (p.line, p.rule)) t
