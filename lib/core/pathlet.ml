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
   [note_progress]. *)
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
  mutable n_suspect : int;
  scratch : Cc.signal; (* [on_ack]'s per-pathlet fold *)
}

let create ?init_window ?(mss = 1440) ?(suspect_after = 3)
    ?(probe_interval = Engine.Time.us 500) algo =
  { default_algo = algo; init_window; mss; suspect_after; probe_interval;
    table = Tbl.create 8; controlled = []; n_suspect = 0;
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

let note_timeout t refs ~now =
  List.iter
    (fun r ->
      let h = entry t r in
      h.consec_rto <- h.consec_rto + 1;
      if h.consec_rto >= t.suspect_after && not h.suspect then begin
        h.suspect <- true;
        (* First probe only after a full interval: the pathlet just
           proved dead, give it time before spending a packet on it. *)
        h.last_probe <- now;
        t.n_suspect <- t.n_suspect + 1
      end)
    refs

let progress t r =
  match Tbl.find t.table (key r) with
  | exception Not_found -> ()
  | h ->
    h.consec_rto <- 0;
    if h.suspect then begin
      h.suspect <- false;
      t.n_suspect <- t.n_suspect - 1
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
   hash-function change would alter the wire trace.  Every view below
   orders by key. *)

let by_key (a : Wire.path_ref) b = compare (key a) (key b)

let suspects t =
  if t.n_suspect = 0 then []
  else
    (* simlint: allow D001 — fold result is sorted by key just below *)
    Tbl.fold (fun _ e acc -> if e.suspect then e.e_ref :: acc else acc) t.table []
    |> List.sort by_key

(* Candidates come from the whole table, not the caller's live path
   list: a dead pathlet ages out of the per-destination path set (no
   acks name it), so the live list is exactly where a suspect never
   appears.  Among the probe-eligible suspects the smallest key wins,
   so the pick is stable across hash layouts. *)
let probe_target t ~now =
  if t.n_suspect = 0 then None
  else
    let best =
      (* simlint: allow D001 — fold keeps the minimum key, order-free *)
      Tbl.fold
        (fun k e best ->
          if e.suspect && now - e.last_probe >= t.probe_interval then
            match best with
            | Some (k', _) when k' <= k -> best
            | Some _ | None -> Some (k, e)
          else best)
        t.table None
    in
    match best with
    | None -> None
    | Some (_, e) ->
      e.last_probe <- now;
      Some e.e_ref

(* -------------------------- steering views ------------------------- *)

(* Suspect pathlets are invisible to steering — unless every offered
   pathlet is suspect, in which case filtering would wedge the sender,
   so we fall back to the unfiltered view and let probing sort it out.
   The [n_suspect = 0] fast path keeps the common (healthy) case
   allocation-free and branch-cheap; the walks below are top-level
   recursions so they allocate no closure either. *)

let rec all_suspect_from t = function
  | [] -> true
  | r :: rest -> suspect t r && all_suspect_from t rest

let all_suspect t refs = refs != [] && all_suspect_from t refs

let skip_suspects t refs = t.n_suspect > 0 && not (all_suspect t refs)

let slack t e = Cc.window (cc_of t e) - e.flight

let headroom t refs =
  let live =
    if skip_suspects t refs then List.filter (fun r -> not (suspect t r)) refs
    else refs
  in
  List.fold_left (fun acc r -> Int.min acc (slack t (entry t r))) max_int live

let rec sum_slack t skip acc = function
  | [] -> acc
  | r :: rest ->
    let e = entry t r in
    let acc = if skip && e.suspect then acc else acc + Int.max 0 (slack t e) in
    sum_slack t skip acc rest

let headroom_sum t refs = sum_slack t (skip_suspects t refs) 0 refs

(* Ties keep the earlier pathlet. *)
let rec best_from t best best_slack = function
  | [] -> best
  | r :: rest ->
    let e = entry t r in
    let s = slack t e in
    if s > best_slack then best_from t e s rest
    else best_from t best best_slack rest

let best_of t refs =
  let refs =
    if skip_suspects t refs then List.filter (fun r -> not (suspect t r)) refs
    else refs
  in
  match refs with
  | [] -> []
  | [ r ] ->
    (* The lone candidate is its own singleton: no new list. *)
    ignore (get t r);
    refs
  | first :: rest ->
    let e = entry t first in
    (best_from t e (slack t e) rest).e_one

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
