(* Invariant oracles beyond conservation: event-order and
   transport-state checks, designed to be cheap enough to run inside
   every fuzz case.

   Event order: the engine's heap pops strictly by (time, seq), so any
   packet observed by a tap at a time earlier than a previously
   observed one means an ordering bug (or a component lying about
   [Sim.now] — the batched datapath's virtual clock jumps are exactly
   the kind of machinery this guards).

   Transport state: completion callbacks fire at most once per
   message; MTP pathlet tables stay internally consistent (the
   exclusion set is a subset of the known paths, every excluded path
   really is suspect, congestion windows never go negative) and each
   endpoint's in-flight accounting matches its packets in flight. *)

type monotone = {
  mutable last : Engine.Time.t;
  mutable violation : string option;
}

let monotone () = { last = Engine.Time.zero; violation = None }

let observe m at =
  if at < m.last && m.violation = None then
    m.violation <-
      Some
        (Printf.sprintf "time ran backwards: observed t=%d after t=%d" at
           m.last);
  if at > m.last then m.last <- at

let tap m at _p = observe m at

let monotone_result m =
  match m.violation with None -> Ok () | Some msg -> Error msg

let completions_once counts =
  let bad = ref [] in
  Array.iteri
    (fun i n ->
      if n > 1 then
        bad := Printf.sprintf "message %d completed %d times" i n :: !bad)
    counts;
  match !bad with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " (List.rev msgs))

let pathlets_consistent tbl =
  let known = Mtp.Pathlet.known tbl in
  let suspects = Mtp.Pathlet.suspects tbl in
  let bad = ref [] in
  let note msg = bad := msg :: !bad in
  List.iter
    (fun r ->
      if not (Mtp.Pathlet.suspect tbl r) then
        note
          (Printf.sprintf "path %d in exclusion set but not suspect"
             r.Mtp.Wire.path_id);
      if not (List.exists (fun (k, _) -> k = r) known) then
        note
          (Printf.sprintf "path %d excluded but unknown" r.Mtp.Wire.path_id))
    suspects;
  List.iter
    (fun (r, cc) ->
      let w = Mtp.Cc.window cc in
      if w < 0 then
        note
          (Printf.sprintf "path %d: negative congestion window %d"
             r.Mtp.Wire.path_id w);
      let strikes = Mtp.Pathlet.strikes tbl r in
      if strikes < 0 then
        note
          (Printf.sprintf "path %d: negative strike count %d"
             r.Mtp.Wire.path_id strikes))
    known;
  match !bad with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " (List.rev msgs))

let endpoint_ok ep =
  let bad = ref [] in
  let nonneg what n =
    if n < 0 then bad := Printf.sprintf "%s negative (%d)" what n :: !bad
  in
  nonneg "completed" (Mtp.Endpoint.completed ep);
  nonneg "failed" (Mtp.Endpoint.failed ep);
  nonneg "retransmits" (Mtp.Endpoint.retransmits ep);
  nonneg "delivered_messages" (Mtp.Endpoint.delivered_messages ep);
  nonneg "active_messages" (Mtp.Endpoint.active_messages ep);
  (match pathlets_consistent (Mtp.Endpoint.pathlets ep) with
  | Ok () -> ()
  | Error msg -> bad := msg :: !bad);
  (match Mtp.Endpoint.check_pump ep with
  | () -> ()
  | exception Failure msg -> bad := msg :: !bad);
  (* Flight conservation: [Pathlet.discharge] floors at zero, so a
     double discharge or a lost one only shows as a mismatch against
     the packets actually in flight. *)
  let tbl = Mtp.Endpoint.pathlets ep in
  let charged = Mtp.Endpoint.charged_flight ep in
  let expected r = Option.value ~default:0 (List.assoc_opt r charged) in
  List.iter
    (fun r ->
      let infl = Mtp.Pathlet.inflight tbl r and want = expected r in
      if infl <> want then
        bad :=
          Printf.sprintf
            "path %d/%d: in-flight %d but %d bytes of in-flight packets \
             charged to it"
            r.Mtp.Wire.path_id r.Mtp.Wire.path_tc infl want
          :: !bad)
    (List.sort_uniq compare
       (List.map fst charged @ List.map fst (Mtp.Pathlet.known tbl)));
  match !bad with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " (List.rev msgs))
