(* The checked-in allowlist (simlint.allow at the repo root) carries
   suppressions that are about a whole file rather than one
   expression — e.g. the bench harness legitimately reads the wall
   clock.  One entry per line:

     RULE path/to/file.ml          # whole file
     RULE path/to/file.ml:42       # one line only

   '#' starts a comment; blank lines are ignored. *)

type entry = { e_rule : string; e_file : string; e_line : int option }
type t = entry list

let empty = []

let entry_rule e = e.e_rule
let entry_file e = e.e_file

let entry_to_string e =
  match e.e_line with
  | None -> Printf.sprintf "%s %s" e.e_rule e.e_file
  | Some l -> Printf.sprintf "%s %s:%d" e.e_rule e.e_file l

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_entry line =
  match
    String.split_on_char ' ' (String.trim (strip_comment line))
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Ok None
  | [ rule; target ] -> (
    match String.rindex_opt target ':' with
    | Some i -> (
      let file = String.sub target 0 i in
      let ln = String.sub target (i + 1) (String.length target - i - 1) in
      match int_of_string_opt ln with
      | Some n -> Ok (Some { e_rule = rule; e_file = file; e_line = Some n })
      | None -> Error (Printf.sprintf "bad line number %S" ln))
    | None -> Ok (Some { e_rule = rule; e_file = target; e_line = None }))
  | _ -> Error "expected: RULE path[:line]"

let parse_string src =
  let lines = String.split_on_char '\n' src in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
      match parse_entry l with
      | Ok None -> go (n + 1) acc rest
      | Ok (Some e) -> go (n + 1) (e :: acc) rest
      | Error msg -> Error (Printf.sprintf "allowlist line %d: %s" n msg))
  in
  go 1 [] lines

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_string src

let matches e (f : Finding.t) =
  e.e_rule = f.Finding.rule
  && e.e_file = f.Finding.file
  && match e.e_line with None -> true | Some l -> l = f.Finding.line

(* Partition [findings] into (kept, entries that suppressed nothing).
   The unused list is what the driver's staleness check reports — an
   entry that matches no finding of this run is a rotting suppression
   (the offending code moved or was fixed) and must be pruned. *)
let apply t findings =
  let used = Array.make (List.length t) false in
  let kept =
    List.filter
      (fun f ->
        let hit = ref false in
        List.iteri
          (fun i e ->
            if matches e f then begin
              used.(i) <- true;
              hit := true
            end)
          t;
        not !hit)
      findings
  in
  let unused =
    List.filteri (fun i _ -> not used.(i)) t
  in
  (kept, unused)
