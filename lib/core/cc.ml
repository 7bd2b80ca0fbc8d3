type algo = Aimd | Dctcp | Rcp | Swift

(* DCTCP's alpha EWMA gain (1/16, RFC 8257) and Swift's fabric-delay
   target. *)
let dctcp_g = 0.0625
let swift_target = Engine.Time.us 20

(* The float state lives in an all-float record, which OCaml stores
   flat: a store writes the unboxed double in place, where a float field
   of a mixed record would box a fresh float on every update. *)
type floats = {
  mutable cwnd : float; (* bytes *)
  mutable ssthresh : float;
  mutable alpha : float; (* DCTCP *)
  mutable srtt_ns : float; (* < 0: no sample *)
  mutable rttvar_ns : float;
}

type t = {
  algo : algo;
  c_mss : int;
  f : floats;
  (* DCTCP *)
  mutable acked_win : int;
  mutable marked_win : int;
  mutable win_end : Engine.Time.t;
  (* RCP: the latest grant in Mbps; < 0 before the first (grants are
     wire u32s, never negative). *)
  mutable rate_grant_mbps : int;
  (* Once-per-RTT decrease guard & congestion recency *)
  mutable last_decrease : Engine.Time.t;
  mutable last_congested : Engine.Time.t;
}

let default_srtt = 100_000.0 (* 100 us before any sample *)

let create ?init_window ?(mss = 1440) algo =
  let init =
    match init_window with Some w -> float_of_int w | None -> float_of_int (10 * mss)
  in
  (* A large negative sentinel that cannot overflow [now - sentinel]. *)
  let never = -1_000_000_000_000_000 in
  { algo; c_mss = mss;
    f = { cwnd = init; ssthresh = infinity; alpha = 1.0; srtt_ns = -1.0;
          rttvar_ns = 0.0 };
    acked_win = 0; marked_win = 0; win_end = 0; rate_grant_mbps = -1;
    last_decrease = never; last_congested = never }

let algo t = t.algo

let mssf t = float_of_int t.c_mss

let srtt t =
  if t.f.srtt_ns < 0.0 then int_of_float default_srtt
  else int_of_float t.f.srtt_ns

let rto t =
  let f = t.f in
  let base =
    if f.srtt_ns < 0.0 then 2.0 *. default_srtt
    else f.srtt_ns +. (4.0 *. Float.max f.rttvar_ns (f.srtt_ns /. 4.0))
  in
  Int.max 50_000 (int_of_float base)

let observe_rtt t sample =
  let f = t.f in
  let r = float_of_int sample in
  if f.srtt_ns < 0.0 then begin
    f.srtt_ns <- r;
    f.rttvar_ns <- r /. 2.0
  end
  else begin
    f.rttvar_ns <-
      (0.75 *. f.rttvar_ns) +. (0.25 *. Float.abs (f.srtt_ns -. r));
    f.srtt_ns <- (0.875 *. f.srtt_ns) +. (0.125 *. r)
  end

let srtt_span t = Int.max 10_000 (srtt t)

let can_decrease t ~now = now - t.last_decrease >= srtt_span t

let multiplicative_decrease t ~now factor =
  if can_decrease t ~now then begin
    let f = t.f in
    f.cwnd <- Float.max (mssf t) (f.cwnd *. factor);
    f.ssthresh <- f.cwnd;
    t.last_decrease <- now
  end

let additive_increase t acked =
  let f = t.f in
  if f.cwnd < f.ssthresh then f.cwnd <- f.cwnd +. float_of_int acked
  else f.cwnd <- f.cwnd +. (mssf t *. float_of_int acked /. f.cwnd)

(* Leave slow start on the first congestion signal. *)
let end_slow_start t =
  if t.f.ssthresh = infinity then t.f.ssthresh <- t.f.cwnd

let dctcp_window_turnover t ~now =
  if now >= t.win_end && t.acked_win > 0 then begin
    let f = t.f in
    let frac = float_of_int t.marked_win /. float_of_int t.acked_win in
    f.alpha <- ((1.0 -. dctcp_g) *. f.alpha) +. (dctcp_g *. frac);
    if t.marked_win > 0 then begin
      f.cwnd <- Float.max (mssf t) (f.cwnd *. (1.0 -. (f.alpha /. 2.0)));
      f.ssthresh <- f.cwnd;
      t.last_decrease <- now
    end;
    t.acked_win <- 0;
    t.marked_win <- 0;
    t.win_end <- now + srtt_span t
  end

type signal = {
  mutable congested : bool;
  mutable trimmed : bool;
  mutable marked : bool;
  mutable rate : int;
  mutable delay : int;
}

let clear s =
  s.congested <- false;
  s.trimmed <- false;
  s.marked <- false;
  s.rate <- -1;
  s.delay <- 0

let signal () =
  { congested = false; trimmed = false; marked = false; rate = -1; delay = 0 }

let fold s fb =
  if Feedback.is_congested fb then s.congested <- true;
  match fb with
  | Feedback.Ecn b -> if b then s.marked <- true
  | Feedback.Trimmed -> s.trimmed <- true
  | Feedback.Rate mbps -> s.rate <- mbps
  | Feedback.Delay d -> if d > s.delay then s.delay <- d
  | Feedback.Queue _ -> ()

let on_signal t ~now ~acked ~rtt s =
  if rtt >= 0 then observe_rtt t rtt;
  if s.congested then t.last_congested <- now;
  (* A trim is an unambiguous overload signal (the network discarded
     payload): cut immediately, whatever the algorithm — NDP-style. *)
  if s.trimmed then begin
    end_slow_start t;
    multiplicative_decrease t ~now 0.5
  end;
  match t.algo with
  | Aimd ->
    if s.marked || s.trimmed then begin
      (* Halve at most once per RTT. *)
      end_slow_start t;
      multiplicative_decrease t ~now 0.5
    end
    else additive_increase t acked
  | Dctcp ->
    (* Trims were handled above; only ECN marks feed alpha. *)
    t.acked_win <- t.acked_win + acked;
    if s.marked then begin
      t.marked_win <- t.marked_win + acked;
      end_slow_start t
    end
    else additive_increase t acked;
    dctcp_window_turnover t ~now
  | Rcp ->
    if s.rate >= 0 then t.rate_grant_mbps <- s.rate;
    (* Between grants, grow conservatively so an idle grant does not
       freeze a cold start. *)
    if t.rate_grant_mbps < 0 then additive_increase t acked
  | Swift ->
    (* Fabric delay: the largest hop report, or what the RTT sample
       shows above two thirds of the smoothed RTT. *)
    let from_rtt =
      if rtt >= 0 then Int.max 0 (rtt - (2 * srtt_span t / 3)) else 0
    in
    let delay = Int.max from_rtt s.delay in
    if delay > swift_target then begin
      let over = float_of_int (delay - swift_target) /. float_of_int delay in
      end_slow_start t;
      multiplicative_decrease t ~now (Float.max 0.5 (1.0 -. (0.8 *. over)))
    end
    else additive_increase t acked

let on_ack t ~now ~acked ?(rtt = -1) fbs =
  let s = signal () in
  List.iter (fold s) fbs;
  on_signal t ~now ~acked ~rtt s

let on_loss t ~now =
  let f = t.f in
  t.last_congested <- now;
  f.ssthresh <- Float.max (f.cwnd /. 2.0) (2.0 *. mssf t);
  f.cwnd <- mssf t;
  t.last_decrease <- now

let window t =
  match t.algo with
  | Rcp when t.rate_grant_mbps >= 0 ->
    (* rate (Mbps) * srtt (ns) / 8000 = bytes per RTT. *)
    let bytes =
      float_of_int t.rate_grant_mbps *. float_of_int (srtt_span t) /. 8000.0
    in
    Int.max t.c_mss (int_of_float bytes)
  | Aimd | Dctcp | Rcp | Swift -> Int.max t.c_mss (int_of_float t.f.cwnd)

let congested t ~now =
  t.last_congested >= 0 && now - t.last_congested <= 2 * srtt_span t
