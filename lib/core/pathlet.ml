(* One record per pathlet, keyed by the dense int [(path_id lsl 8) lor
   path_tc] (both wire fields: u16 and u8).  Integer keys hash and
   compare without allocating, and ordering keys orders the pairs, so
   the sorted views below keep the [(path_id, path_tc)] order.

   A record exists once anything touched the pathlet; its controller
   only once [get] asked for it, so [known] lists exactly the pathlets
   some caller wanted a window for.  Those records are also kept in a
   list sorted by key, so the views over controllers walk it with no
   fold and no sort.  Health: a pathlet that times out
   [suspect_after] times in a row with no forward progress is declared
   suspect and excluded from steering until a periodic probe (a real
   data packet routed over it) is acked, which clears the flag via
   [note_progress].  Suspect entries are kept in a second list sorted
   by key, changed only where the flag flips, so the steering and
   probing views below read it without allocating. *)
type entry = {
  e_ref : Wire.path_ref;
  e_one : Wire.path_ref list; (* [[e_ref]], the singleton charging target *)
  mutable cc : Cc.t option;
  mutable flight : int;
  mutable consec_rto : int;
  mutable suspect : bool;
  mutable last_probe : Engine.Time.t;
}

module Tbl = Hashtbl.Make (Int)

type t = {
  default_algo : Cc.algo;
  init_window : int option;
  mss : int;
  suspect_after : int;
  probe_interval : Engine.Time.t;
  table : entry Tbl.t;
  mutable controlled : entry list; (* entries with a controller, by key *)
  mutable suspected : entry list; (* suspect entries, by key *)
  mutable suspect_refs : Wire.path_ref list; (* their [e_ref]s *)
  scratch : Cc.signal; (* [on_ack]'s per-pathlet fold *)
}

let create ?init_window ?(mss = 1440) ?(suspect_after = 3)
    ?(probe_interval = Engine.Time.us 500) algo =
  { default_algo = algo; init_window; mss; suspect_after; probe_interval;
    table = Tbl.create 8; controlled = []; suspected = []; suspect_refs = [];
    scratch = Cc.signal () }

let key (r : Wire.path_ref) = (r.Wire.path_id lsl 8) lor r.Wire.path_tc

let entry t r =
  let k = key r in
  match Tbl.find t.table k with
  | e -> e
  | exception Not_found ->
    let e =
      { e_ref = r; e_one = [ r ]; cc = None; flight = 0; consec_rto = 0;
        suspect = false; last_probe = 0 }
    in
    Tbl.add t.table k e;
    e

let rec insert_by_key e = function
  | [] -> [ e ]
  | x :: rest as l ->
    if key x.e_ref > key e.e_ref then e :: l else x :: insert_by_key e rest

let set_cc t e cc =
  (match e.cc with
  | None -> t.controlled <- insert_by_key e t.controlled
  | Some _ -> ());
  e.cc <- Some cc

let cc_of t e =
  match e.cc with
  | Some cc -> cc
  | None ->
    (* simlint: allow H103 — once per pathlet, at its first packet *)
    let cc = Cc.create ?init_window:t.init_window ~mss:t.mss t.default_algo in
    set_cc t e cc;
    cc

let get t r = cc_of t (entry t r)

let set_algo_for t r algo =
  (* simlint: allow H103 — configuration call, not per packet *)
  set_cc t (entry t r) (Cc.create ?init_window:t.init_window ~mss:t.mss algo)

let inflight t r =
  match Tbl.find t.table (key r) with e -> e.flight | exception Not_found -> 0

let rec charge t refs bytes =
  match refs with
  | [] -> ()
  | r :: rest ->
    let e = entry t r in
    e.flight <- e.flight + bytes;
    charge t rest bytes

let rec discharge t refs bytes =
  match refs with
  | [] -> ()
  | r :: rest ->
    let e = entry t r in
    e.flight <- Int.max 0 (e.flight - bytes);
    discharge t rest bytes

(* ------------------------- suspect tracking ------------------------ *)

let suspect t r =
  match Tbl.find t.table (key r) with
  | e -> e.suspect
  | exception Not_found -> false

let strikes t r =
  match Tbl.find t.table (key r) with
  | e -> e.consec_rto
  | exception Not_found -> 0

let rec refs_of = function [] -> [] | e :: rest -> e.e_ref :: refs_of rest

let rec remove e = function
  | [] -> []
  | x :: rest -> if x == e then rest else x :: remove e rest

let set_suspected t l =
  t.suspected <- l;
  t.suspect_refs <- refs_of l

let rec note_timeout t refs ~now =
  match refs with
  | [] -> ()
  | r :: rest ->
    let h = entry t r in
    h.consec_rto <- h.consec_rto + 1;
    if h.consec_rto >= t.suspect_after && not h.suspect then begin
      h.suspect <- true;
      (* First probe only after a full interval: the pathlet just
         proved dead, give it time before spending a packet on it. *)
      h.last_probe <- now;
      set_suspected t (insert_by_key h t.suspected)
    end;
    note_timeout t rest ~now

let progress t r =
  match Tbl.find t.table (key r) with
  | exception Not_found -> ()
  | h ->
    h.consec_rto <- 0;
    if h.suspect then begin
      h.suspect <- false;
      set_suspected t (remove h t.suspected)
    end

let rec note_progress t = function
  | [] -> ()
  | r :: rest ->
    progress t r;
    note_progress t rest

(* Progress is idempotent, so a pathlet named twice is simply reset
   twice. *)
let rec note_progress_fb t = function
  | [] -> ()
  | { Wire.fb_path; _ } :: rest ->
    progress t fb_path;
    note_progress_fb t rest

(* ------------------------- feedback dispatch ----------------------- *)

let rec fold_path s p = function
  | [] -> ()
  | { Wire.fb_path; fb } :: rest ->
    if Wire.same_path fb_path p then Cc.fold s fb;
    fold_path s p rest

(* Walk [fbs] from the cell [cells]; each pathlet's first entry folds
   that pathlet's entries (they can only follow it) and fires its
   controller. *)
let rec dispatch t ~now ~acked ~rtt fbs cells =
  match cells with
  | [] -> ()
  | { Wire.fb_path; _ } :: rest ->
    if Wire.first_mention fbs cells then begin
      Cc.clear t.scratch;
      fold_path t.scratch fb_path cells;
      Cc.on_signal (get t fb_path) ~now ~acked ~rtt t.scratch
    end;
    dispatch t ~now ~acked ~rtt fbs rest

let on_ack t ~now ~acked ~rtt ~implicit_trim ~tc fbs =
  match fbs with
  | [] ->
    Cc.clear t.scratch;
    if implicit_trim then Cc.fold t.scratch Feedback.Trimmed;
    Cc.on_signal
      (get t { Wire.path_id = 0; path_tc = tc })
      ~now ~acked ~rtt t.scratch
  | _ :: _ -> dispatch t ~now ~acked ~rtt fbs fbs

(* Suspect sets and probe choices must not depend on the hash layout:
   the suspect list lands in MTP header exclusion lists, so a
   hash-function change would alter the wire trace.  Both views read
   [suspected], which is in key order. *)

let suspects t = t.suspect_refs

(* Candidates come from the whole table, not the caller's live path
   list: a dead pathlet ages out of the per-destination path set (no
   acks name it), so the live list is exactly where a suspect never
   appears.  Among the probe-eligible suspects the smallest key (the
   first in [suspected]) wins, so the pick is stable across hash
   layouts. *)
let rec first_due t ~now = function
  | [] -> None
  | e :: rest ->
    if now - e.last_probe >= t.probe_interval then begin
      e.last_probe <- now;
      Some e.e_ref
    end
    else first_due t ~now rest

let probe_target t ~now = first_due t ~now t.suspected

(* -------------------------- steering views ------------------------- *)

(* Suspect pathlets are invisible to steering — unless every offered
   pathlet is suspect, in which case filtering would wedge the sender,
   so we fall back to the unfiltered view and let probing sort it out.
   The walks below pass over suspects when [skip] holds; they are
   top-level recursions and make no filtered copy, so they allocate
   nothing, and with no suspect at all they cost one test. *)

let rec all_suspect_from t = function
  | [] -> true
  | r :: rest -> suspect t r && all_suspect_from t rest

let all_suspect t refs = refs != [] && all_suspect_from t refs

let skip_suspects t refs = t.suspected != [] && not (all_suspect t refs)

let slack t e = Cc.window (cc_of t e) - e.flight

let rec min_slack t skip acc = function
  | [] -> acc
  | r :: rest ->
    let e = entry t r in
    let acc = if skip && e.suspect then acc else Int.min acc (slack t e) in
    min_slack t skip acc rest

let headroom t refs = min_slack t (skip_suspects t refs) max_int refs

let rec sum_slack t skip acc = function
  | [] -> acc
  | r :: rest ->
    let e = entry t r in
    let acc = if skip && e.suspect then acc else acc + Int.max 0 (slack t e) in
    sum_slack t skip acc rest

let headroom_sum t refs = sum_slack t (skip_suspects t refs) 0 refs

(* Ties keep the earlier pathlet. *)
let rec best_from t skip best best_slack = function
  | [] -> best
  | r :: rest ->
    let e = entry t r in
    if skip && e.suspect then best_from t skip best best_slack rest
    else
      let s = slack t e in
      if s > best_slack then best_from t skip e s rest
      else best_from t skip best best_slack rest

(* The first candidate opens the walk; the winner is its own singleton
   charging target, so no list is made. *)
let rec best_of_from t skip = function
  | [] -> []
  | r :: rest ->
    let e = entry t r in
    if skip && e.suspect then best_of_from t skip rest
    else (best_from t skip e (slack t e) rest).e_one

let best_of t refs = best_of_from t (skip_suspects t refs) refs

let known t =
  List.filter_map
    (fun e -> match e.cc with Some cc -> Some (e.e_ref, cc) | None -> None)
    t.controlled

let rec congested_from ~now = function
  | [] -> []
  | e :: rest -> (
    match e.cc with
    | Some cc when Cc.congested cc ~now -> e.e_ref :: congested_from ~now rest
    | Some _ | None -> congested_from ~now rest)

let congested_paths t ~now = congested_from ~now t.controlled

let mismatch = [ { Wire.path_id = -1; path_tc = -1 } ]

(* Walk the first [n] congested entries of a [controlled] suffix and
   match them, last first, against the head of [prev] as the recursion
   unwinds: what is left of [prev] when each matches, else [mismatch].
   Nothing is allocated. *)
let rec match_congested ~now n prev = function
  | [] -> prev
  | e :: rest -> (
    if n = 0 then prev
    else
      match e.cc with
      | Some cc when Cc.congested cc ~now -> (
        match match_congested ~now (n - 1) prev rest with
        | r :: more when Wire.same_path r e.e_ref -> more
        | _ :: _ | [] -> mismatch)
      | Some _ | None -> match_congested ~now n prev rest)

let rec first_rev n acc = function
  | r :: rest when n > 0 -> first_rev (n - 1) (r :: acc) rest
  | _ :: _ | [] -> acc

let is_advisory t ~now ~max l =
  match match_congested ~now max l t.controlled with
  | [] -> true
  | _ :: _ -> false

let advisory t ~now ~max = first_rev max [] (congested_paths t ~now)

let rec congested_is ~now l = function
  | [] -> ( match l with [] -> true | _ :: _ -> false)
  | e :: rest -> (
    match e.cc with
    | Some cc when Cc.congested cc ~now -> (
      match l with
      | r :: more when Wire.same_path r e.e_ref -> congested_is ~now more rest
      | _ :: _ | [] -> false)
    | Some _ | None -> congested_is ~now l rest)

let is_congested_paths t ~now l = congested_is ~now l t.controlled
