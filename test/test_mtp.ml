(* Tests for the MTP core: wire format, congestion control, endpoint
   reliability, switch-side feedback, policies, blob layer, Table 1. *)

open Netsim
open Mtp

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------ Wire ------------------------------- *)

(* Literals start from [Wire.blank ()] for the cell a header owns. *)
let sample_header =
  { (Wire.blank ()) with
    Wire.src_port = 1234; dst_port = 80; msg_id = 42; msg_pri = 3;
    msg_tc = 2; msg_len = 1_000_000; msg_pkts = 695; pkt_num = 17;
    pkt_offset = 24_480; pkt_len = 1440; is_ack = false; cookie = 7;
    cookie2 = 99;
    path_exclude = [ { Wire.path_id = 5; path_tc = 1 } ];
    path_feedback =
      [ { Wire.fb_path = { Wire.path_id = 1; path_tc = 2 };
          fb = Feedback.Ecn true };
        { Wire.fb_path = { Wire.path_id = 9; path_tc = 0 };
          fb = Feedback.Rate 40_000 } ];
    ack_path_feedback = [];
    sack = [ { Wire.ref_msg = 42; ref_pkt = 16 } ];
    nack = [ { Wire.ref_msg = 41; ref_pkt = 3 } ] }

let test_wire_roundtrip () =
  let encoded = Wire.encode sample_header in
  let decoded = Wire.decode encoded in
  checkb "roundtrip equal" true (Wire.equal sample_header decoded)

(* A header box owns its SACK cell.  A copy gets its own, so refilling
   the original as an ack leaves the copy as it was; the cell is not
   on the wire, and equality ignores it. *)
let test_wire_copy_owns_its_cell () =
  let h = Wire.copy sample_header in
  h.Wire.sack <- [];
  let c = Wire.copy h in
  checkb "a copy is equal" true (Wire.equal c h);
  checkb "with a cell of its own" false (c.Wire.sack_cell == h.Wire.sack_cell);
  let one = Wire.refill_cell h ~msg_id:9 ~pkt_num:4 in
  checkb "the cell is the box's" true (one == h.Wire.sack_cell);
  Wire.fill h ~is_ack:true ~pri:0 ~tc:0 ~cookie:0 ~cookie2:0 ~exclude:[]
    ~src_port:80 ~dst_port:1234 ~msg_id:9 ~msg_len:0 ~msg_pkts:0 ~pkt_num:0
    ~pkt_offset:0 ~pkt_len:0 ~sack:one ~nack:[] ~ack_path_feedback:[];
  let refs l = List.map (fun r -> (r.Wire.ref_msg, r.Wire.ref_pkt)) l in
  Alcotest.(check (list (pair int int))) "the box acks" [ (9, 4) ]
    (refs h.Wire.sack);
  Alcotest.(check (list (pair int int)))
    "the copy's cell is untouched" [ (0, 0) ] (refs c.Wire.sack_cell);
  checkb "the copy is unchanged" true
    (Wire.equal c { sample_header with Wire.sack = [] });
  checkb "the refilled box round-trips" true
    (Wire.equal h (Wire.decode (Wire.encode h)))

let test_wire_size_matches () =
  let encoded = Wire.encode sample_header in
  checki "encoded_size exact" (Bytes.length encoded)
    (Wire.encoded_size sample_header)

let test_wire_fixed_size_minimal () =
  let h =
    Wire.data ~pri:0 ~tc:0 ~cookie:0 ~cookie2:0 ~exclude:[] ~src_port:1
      ~dst_port:2 ~msg_id:3 ~msg_len:100 ~msg_pkts:1 ~pkt_num:0 ~pkt_offset:0
      ~pkt_len:100
  in
  checki "no lists -> fixed size" Wire.fixed_size (Wire.encoded_size h);
  checki "encode matches" Wire.fixed_size (Bytes.length (Wire.encode h))

let test_wire_add_feedback_grows () =
  let h =
    Wire.data ~pri:0 ~tc:0 ~cookie:0 ~cookie2:0 ~exclude:[] ~src_port:1
      ~dst_port:2 ~msg_id:3 ~msg_len:100 ~msg_pkts:1 ~pkt_num:0 ~pkt_offset:0
      ~pkt_len:100
  in
  let bare = Wire.encoded_size h in
  Wire.add_feedback h { Wire.path_id = 4; path_tc = 0 } (Feedback.Ecn true);
  checki "one fb entry" 1 (List.length h.Wire.path_feedback);
  checkb "size grew" true (Wire.encoded_size h > bare);
  (* A later append replaces the list with a longer copy: a list another
     header may share is never extended. *)
  let first = h.Wire.path_feedback in
  Wire.add_feedback h { Wire.path_id = 5; path_tc = 0 } (Feedback.Ecn false);
  checki "two fb entries" 2 (List.length h.Wire.path_feedback);
  checki "earlier list untouched" 1 (List.length first)

(* A golden vector pins the byte-level format: any change to the
   encoding (field widths, ordering, TLV layout) fails this test and
   must be deliberate. *)
let test_wire_golden_vector () =
  let h =
    { (Wire.blank ()) with
      Wire.src_port = 0x1234; dst_port = 80; msg_id = 0xDEADBE; msg_pri = 3;
      msg_tc = 2; msg_len = 1_000_000; msg_pkts = 695; pkt_num = 17;
      pkt_offset = 24_480; pkt_len = 1440; is_ack = false; cookie = 7;
      cookie2 = 99;
      path_exclude = [ { Wire.path_id = 5; path_tc = 1 } ];
      path_feedback =
        [ { Wire.fb_path = { Wire.path_id = 1; path_tc = 2 };
            fb = Feedback.Ecn true };
          { Wire.fb_path = { Wire.path_id = 9; path_tc = 0 };
            fb = Feedback.Rate 40_000 } ];
      ack_path_feedback =
        [ { Wire.fb_path = { Wire.path_id = 9; path_tc = 0 };
            fb = Feedback.Delay 123_456 } ];
      sack = [ { Wire.ref_msg = 42; ref_pkt = 16 } ];
      nack = [ { Wire.ref_msg = 41; ref_pkt = 3 } ] }
  in
  let hex b =
    String.concat ""
      (List.map (Printf.sprintf "%02x")
         (List.init (Bytes.length b) (fun i -> Char.code (Bytes.get b i))))
  in
  Alcotest.(check string) "golden encoding"
    ("1234005000deadbe0302000f4240000002b70000001100005fa005a0000000000700"
   ^ "0000630100050102000102010101000900030400009c400100090004040001e24001"
   ^ "0000002a00000010010000002900000003")
    (hex (Wire.encode h));
  checkb "golden decodes back" true (Wire.equal h (Wire.decode (Wire.encode h)))

(* qcheck generator for headers *)
let feedback_gen =
  QCheck.Gen.(
    oneof
      [ map (fun b -> Feedback.Ecn b) bool;
        map (fun d -> Feedback.Queue (d land 0xffff)) nat;
        map (fun r -> Feedback.Rate (r land 0xffffff)) nat;
        map (fun d -> Feedback.Delay (d land 0xffffff)) nat;
        return Feedback.Trimmed ])

let path_ref_gen =
  QCheck.Gen.(
    map2
      (fun id tc -> { Wire.path_id = id land 0xffff; path_tc = tc land 0xff })
      nat nat)

let path_fb_gen =
  QCheck.Gen.(
    map2 (fun p f -> { Wire.fb_path = p; fb = f }) path_ref_gen feedback_gen)

let pkt_ref_gen =
  QCheck.Gen.(
    map2
      (fun m p -> { Wire.ref_msg = m land 0xffffff; ref_pkt = p land 0xffff })
      nat nat)

let header_gen =
  QCheck.Gen.(
    let small_list g = list_size (0 -- 5) g in
    let u16 = map (fun v -> v land 0xffff) nat in
    let u8 = map (fun v -> v land 0xff) nat in
    let u32 = map (fun v -> v land 0xffffff) nat in
    map (fun
          ((src_port, dst_port, msg_id, msg_pri, msg_tc),
           (msg_len, msg_pkts, pkt_num, pkt_offset, pkt_len),
           (is_ack, cookie, cookie2),
           (path_exclude, path_feedback, ack_path_feedback, sack, nack)) ->
          { (Wire.blank ()) with
            Wire.src_port; dst_port; msg_id; msg_pri; msg_tc; msg_len;
            msg_pkts; pkt_num; pkt_offset; pkt_len; is_ack; cookie; cookie2;
            path_exclude; path_feedback; ack_path_feedback; sack; nack })
      (quad
         (tup5 u16 u16 u32 u8 u8)
         (tup5 u32 u32 u32 u32 u16)
         (tup3 bool u32 u32)
         (tup5 (small_list path_ref_gen) (small_list path_fb_gen)
            (small_list path_fb_gen) (small_list pkt_ref_gen)
            (small_list pkt_ref_gen))))

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire encode/decode roundtrip" ~count:300
    (QCheck.make header_gen) (fun h ->
      let b = Wire.encode h in
      Bytes.length b = Wire.encoded_size h && Wire.equal (Wire.decode b) h)

(* ---------------------------- Feedback ----------------------------- *)

let test_feedback_roundtrip_each () =
  List.iter
    (fun fb ->
      let buf = Buffer.create 8 in
      Feedback.encode buf fb;
      let bytes = Buffer.to_bytes buf in
      checki "tlv size" (Bytes.length bytes) (Feedback.encoded_size fb);
      let decoded, next = Feedback.decode bytes ~pos:0 in
      checkb "tlv roundtrip" true (Feedback.equal fb decoded);
      checki "cursor" (Bytes.length bytes) next)
    [ Feedback.Ecn true; Feedback.Ecn false; Feedback.Queue 37;
      Feedback.Rate 100_000; Feedback.Delay 123_456; Feedback.Trimmed ]

let test_feedback_congestion_signal () =
  checkb "ce" true (Feedback.is_congested (Feedback.Ecn true));
  checkb "no ce" false (Feedback.is_congested (Feedback.Ecn false));
  checkb "trim" true (Feedback.is_congested Feedback.Trimmed);
  checkb "deep queue" true (Feedback.is_congested (Feedback.Queue 100));
  checkb "shallow queue" false (Feedback.is_congested (Feedback.Queue 2))

let test_feedback_decode_rejects_unknown () =
  let bytes = Bytes.of_string "\xff\x00" in
  Alcotest.check_raises "unknown TLV type"
    (Failure "Feedback.decode: unknown type 255") (fun () ->
      ignore (Feedback.decode bytes ~pos:0))

let test_endpoint_rejects_empty_message () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 1)
       ~delay:(Engine.Time.us 1) ());
  let ea = Endpoint.attach (Host.create a) in
  Alcotest.check_raises "empty message"
    (Invalid_argument "Endpoint.send: size must be positive") (fun () ->
      ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:0 ()));
  List.iter
    (fun tc ->
      Alcotest.check_raises "tc outside the u8 header field"
        (Invalid_argument "Endpoint.send: tc must fit the header's u8 field")
        (fun () ->
          ignore
            (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~tc ~size:1 ())))
    [ -1; 256 ];
  (* Coalesced SACKs go out behind the ack header's u8 count. *)
  let hb = Host.create b in
  List.iter
    (fun ack_every ->
      Alcotest.check_raises "ack_every outside the u8 SACK count"
        (Invalid_argument "Endpoint.attach: ack_every must be in 1..255")
        (fun () -> ignore (Endpoint.attach ~ack_every hb)))
    [ -1; 0; 256 ];
  ignore (Endpoint.attach ~ack_every:255 hb);
  let sacks n = List.init n (fun i -> { Wire.ref_msg = 1; ref_pkt = i }) in
  let h = { sample_header with Wire.sack = sacks 255 } in
  checkb "255 SACKs round-trip" true
    (Wire.equal h (Wire.decode (Wire.encode h)));
  Alcotest.check_raises "256 SACKs overflow the u8 count"
    (Invalid_argument "Wire.encode: 256 sack entries exceed the u8 count")
    (fun () ->
      ignore (Wire.encode { sample_header with Wire.sack = sacks 256 }))

let test_policy_rejects_zero_weights () =
  Alcotest.check_raises "weights must be positive"
    (Invalid_argument "Policy: weights must be positive") (fun () ->
      ignore (Policy.weighted [ (1, 0.0); (2, 0.0) ]))

let test_blob_rejects_empty () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 1)
       ~delay:(Engine.Time.us 1) ());
  let ea = Endpoint.attach (Host.create a) in
  Alcotest.check_raises "empty blob"
    (Invalid_argument "Blob.send: size must be positive") (fun () ->
      Blob.send ea ~dst:(Node.addr b) ~dst_port:80 ~blob_id:1 ~size:0 ())

let test_mutate_rejects_bad_factor () =
  let sim = Engine.Sim.create () in
  let sw = Netsim.Switch.create (Netsim.Packet.pool sim) ~name:"sw" in
  Alcotest.check_raises "factor must be in (0, 1]"
    (Invalid_argument "Mutate.install: factor") (fun () ->
      ignore (Innetwork.Mutate.install sw ~dst_port:1 ~factor:1.5 ()))

(* ------------------------------- Cc -------------------------------- *)

let test_cc_aimd_growth_and_halving () =
  let cc = Cc.create ~mss:1440 Cc.Aimd in
  let w0 = Cc.window cc in
  Cc.on_ack cc ~now:1000 ~acked:1440 ~rtt:10_000 [];
  checkb "slow start grows by acked" true (Cc.window cc >= w0 + 1440);
  let before = Cc.window cc in
  Cc.on_ack cc ~now:2000 ~acked:1440 ~rtt:10_000 [ Feedback.Ecn true ];
  checkb "halved on ECN" true (Cc.window cc <= (before / 2) + 1440)

let test_cc_once_per_rtt_decrease () =
  let cc = Cc.create ~mss:1440 Cc.Aimd in
  Cc.on_ack cc ~now:1000 ~acked:1440 ~rtt:100_000 [];
  let w1 = Cc.window cc in
  Cc.on_ack cc ~now:2000 ~acked:0 [ Feedback.Ecn true ];
  let w2 = Cc.window cc in
  (* Second mark within the same RTT must not halve again. *)
  Cc.on_ack cc ~now:3000 ~acked:0 [ Feedback.Ecn true ];
  checkb "no double cut within an RTT" true (Cc.window cc = w2 && w2 < w1)

let test_cc_dctcp_proportional () =
  let heavy = Cc.create ~init_window:100_000 ~mss:1440 Cc.Dctcp in
  let light = Cc.create ~init_window:100_000 ~mss:1440 Cc.Dctcp in
  (* Heavy marking: every ack marked; light: one in ten. *)
  for i = 1 to 50 do
    let now = i * 300_000 in
    Cc.on_ack heavy ~now ~acked:10_000 ~rtt:100_000 [ Feedback.Ecn true ];
    Cc.on_ack light ~now ~acked:10_000 ~rtt:100_000
      [ Feedback.Ecn (i mod 10 = 0) ]
  done;
  checkb "heavier marking, smaller window" true
    (Cc.window heavy < Cc.window light)

let test_cc_rcp_rate_grant () =
  let cc = Cc.create ~mss:1440 Cc.Rcp in
  Cc.on_ack cc ~now:1000 ~acked:1440 ~rtt:100_000 [ Feedback.Rate 8_000 ];
  (* 8000 Mbps * 100 us = 100 KB per RTT. *)
  let w = Cc.window cc in
  checkb "window tracks grant" true (w > 80_000 && w < 120_000);
  Cc.on_ack cc ~now:2000 ~acked:1440 ~rtt:100_000 [ Feedback.Rate 800 ];
  checkb "lower grant shrinks window" true (Cc.window cc < w / 5)

let test_cc_swift_delay_response () =
  let cc = Cc.create ~init_window:100_000 ~mss:1440 Cc.Swift in
  Cc.on_ack cc ~now:1000 ~acked:1440 ~rtt:10_000 [ Feedback.Delay 1_000 ];
  let grown = Cc.window cc in
  checkb "below target grows" true (grown > 100_000);
  Cc.on_ack cc ~now:500_000 ~acked:1440 ~rtt:10_000
    [ Feedback.Delay 200_000 ];
  checkb "above target shrinks" true (Cc.window cc < grown)

let test_cc_loss_collapses_window () =
  let cc = Cc.create ~init_window:100_000 ~mss:1440 Cc.Aimd in
  Cc.on_loss cc ~now:1000;
  checki "window back to 1 mss" 1440 (Cc.window cc)

let test_cc_congested_recency () =
  let cc = Cc.create ~mss:1440 Cc.Aimd in
  checkb "initially clear" false (Cc.congested cc ~now:0);
  Cc.on_ack cc ~now:1000 ~acked:0 [ Feedback.Ecn true ];
  checkb "congested now" true (Cc.congested cc ~now:2000);
  checkb "clears after quiet RTTs" false
    (Cc.congested cc ~now:(1000 + Engine.Time.ms 10))

(* qcheck: whatever feedback sequence a controller sees, its window
   stays within sane bounds (>= 1 mss, finite, never NaN). *)
let prop_cc_window_bounded =
  let fb_gen =
    QCheck.Gen.(
      oneof
        [ map (fun b -> Feedback.Ecn b) bool;
          map (fun d -> Feedback.Queue (d land 0xff)) nat;
          map (fun r -> Feedback.Rate (1 + (r land 0xfffff))) nat;
          map (fun d -> Feedback.Delay (d land 0xfffff)) nat;
          return Feedback.Trimmed ])
  in
  let algo_gen =
    QCheck.Gen.oneofl
      [ Cc.Aimd; Cc.Dctcp; Cc.Rcp; Cc.Swift ]
  in
  let event_gen =
    QCheck.Gen.(
      pair (int_range 0 20_000) (* acked bytes *) (list_size (0 -- 2) fb_gen))
  in
  QCheck.Test.make ~name:"cc window stays bounded and sane" ~count:200
    (QCheck.make
       QCheck.Gen.(pair algo_gen (list_size (1 -- 60) event_gen)))
    (fun (algo, events) ->
      let cc = Cc.create ~mss:1440 algo in
      List.iteri
        (fun i (acked, fbs) ->
          let now = (i + 1) * 5_000 in
          if i mod 11 = 10 then Cc.on_loss cc ~now
          else Cc.on_ack cc ~now ~acked ~rtt:((i mod 50) * 1_000 + 500) fbs)
        events;
      let w = Cc.window cc in
      w >= 1440 && w < max_int / 2)

(* The feedback fold against a reference model: the controller as it
   was written over feedback lists, fed through per-pathlet grouping.
   Whatever an ack's feedback holds — one to three pathlets, repeats,
   every feedback kind, or nothing but a NACK's implied trim —
   [Pathlet.on_ack] must leave every controller's window, srtt and rto
   exactly where the reference puts them. *)
module Ref_cc = struct
  type t = {
    algo : Cc.algo;
    mss : int;
    mutable cwnd : float;
    mutable ssthresh : float;
    mutable alpha : float;
    mutable acked_win : int;
    mutable marked_win : int;
    mutable win_end : int;
    mutable rate_grant_mbps : int option;
    mutable srtt_ns : float;
    mutable rttvar_ns : float;
    mutable last_decrease : int;
    mutable last_congested : int;
  }

  let default_srtt = 100_000.0

  let create algo =
    let never = -1_000_000_000_000_000 in
    { algo; mss = 1440; cwnd = float_of_int (10 * 1440); ssthresh = infinity;
      alpha = 1.0; acked_win = 0; marked_win = 0; win_end = 0;
      rate_grant_mbps = None; srtt_ns = -1.0; rttvar_ns = 0.0;
      last_decrease = never; last_congested = never }

  let mssf t = float_of_int t.mss

  let srtt t =
    int_of_float (if t.srtt_ns < 0.0 then default_srtt else t.srtt_ns)

  let rto t =
    let base =
      if t.srtt_ns < 0.0 then 2.0 *. default_srtt
      else t.srtt_ns +. (4.0 *. Float.max t.rttvar_ns (t.srtt_ns /. 4.0))
    in
    max 50_000 (int_of_float base)

  let observe_rtt t sample =
    let r = float_of_int sample in
    if t.srtt_ns < 0.0 then begin
      t.srtt_ns <- r;
      t.rttvar_ns <- r /. 2.0
    end
    else begin
      t.rttvar_ns <-
        (0.75 *. t.rttvar_ns) +. (0.25 *. Float.abs (t.srtt_ns -. r));
      t.srtt_ns <- (0.875 *. t.srtt_ns) +. (0.125 *. r)
    end

  let srtt_span t = max 10_000 (srtt t)

  let multiplicative_decrease t ~now factor =
    if now - t.last_decrease >= srtt_span t then begin
      t.cwnd <- Float.max (mssf t) (t.cwnd *. factor);
      t.ssthresh <- t.cwnd;
      t.last_decrease <- now
    end

  let additive_increase t acked =
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. float_of_int acked
    else t.cwnd <- t.cwnd +. (mssf t *. float_of_int acked /. t.cwnd)

  let on_ack t ~now ~acked ?rtt fbs =
    (match rtt with Some r -> observe_rtt t r | None -> ());
    if List.exists Feedback.is_congested fbs then t.last_congested <- now;
    if List.mem Feedback.Trimmed fbs then begin
      if t.ssthresh = infinity then t.ssthresh <- t.cwnd;
      multiplicative_decrease t ~now 0.5
    end;
    let ecn = List.exists (function Feedback.Ecn b -> b | _ -> false) fbs in
    match t.algo with
    | Cc.Aimd ->
      if ecn || List.mem Feedback.Trimmed fbs then begin
        if t.ssthresh = infinity then t.ssthresh <- t.cwnd;
        multiplicative_decrease t ~now 0.5
      end
      else additive_increase t acked
    | Cc.Dctcp ->
      let g = 0.0625 in
      t.acked_win <- t.acked_win + acked;
      if ecn then begin
        t.marked_win <- t.marked_win + acked;
        if t.ssthresh = infinity then t.ssthresh <- t.cwnd
      end
      else additive_increase t acked;
      if now >= t.win_end && t.acked_win > 0 then begin
        let f = float_of_int t.marked_win /. float_of_int t.acked_win in
        t.alpha <- ((1.0 -. g) *. t.alpha) +. (g *. f);
        if t.marked_win > 0 then begin
          t.cwnd <- Float.max (mssf t) (t.cwnd *. (1.0 -. (t.alpha /. 2.0)));
          t.ssthresh <- t.cwnd;
          t.last_decrease <- now
        end;
        t.acked_win <- 0;
        t.marked_win <- 0;
        t.win_end <- now + srtt_span t
      end
    | Cc.Rcp ->
      List.iter
        (function Feedback.Rate m -> t.rate_grant_mbps <- Some m | _ -> ())
        fbs;
      if t.rate_grant_mbps = None then additive_increase t acked
    | Cc.Swift ->
      let target = Engine.Time.us 20 in
      let delay =
        List.fold_left
          (fun acc fb -> match fb with Feedback.Delay d -> max acc d | _ -> acc)
          (match rtt with
          | Some r -> max 0 (r - (2 * srtt_span t / 3))
          | None -> 0)
          fbs
      in
      if delay > target then begin
        let over = float_of_int (delay - target) /. float_of_int delay in
        if t.ssthresh = infinity then t.ssthresh <- t.cwnd;
        multiplicative_decrease t ~now (Float.max 0.5 (1.0 -. (0.8 *. over)))
      end
      else additive_increase t acked

  let window t =
    match t.algo, t.rate_grant_mbps with
    | Cc.Rcp, Some mbps ->
      let bytes = float_of_int mbps *. float_of_int (srtt_span t) /. 8000.0 in
      max t.mss (int_of_float bytes)
    | _ -> max t.mss (int_of_float t.cwnd)

  (* The endpoint's former grouping: entries by pathlet, pathlets in
     order of first appearance. *)
  let group_feedback entries =
    let groups = ref [] in
    List.iter
      (fun { Wire.fb_path; fb } ->
        match List.assoc_opt fb_path !groups with
        | Some fbs -> fbs := fb :: !fbs
        | None -> groups := (fb_path, ref [ fb ]) :: !groups)
      entries;
    List.rev_map (fun (path, fbs) -> (path, List.rev !fbs)) !groups
end

type ack_event = {
  ev_gap : int;
  ev_nack : bool;
  ev_acked : int;
  ev_rtt : int option;
  ev_tc : int;
  ev_fbs : Wire.path_fb list;
}

let prop_feedback_fold_matches_reference =
  let pathlets =
    [| { Wire.path_id = 1; path_tc = 0 }; { Wire.path_id = 2; path_tc = 0 };
       { Wire.path_id = 1; path_tc = 1 } |]
  in
  let fb_gen =
    QCheck.Gen.(
      oneof
        [ map (fun b -> Feedback.Ecn b) bool;
          map (fun d -> Feedback.Queue (d land 0x3f)) nat;
          map (fun r -> Feedback.Rate (r land 0xffff)) nat;
          map (fun d -> Feedback.Delay (d land 0x1ffff)) nat;
          return Feedback.Trimmed ])
  in
  let entry_gen =
    QCheck.Gen.(
      map2
        (fun i fb -> { Wire.fb_path = pathlets.(i); fb })
        (int_range 0 2) fb_gen)
  in
  let event_gen =
    QCheck.Gen.(
      map
        (fun ((gap, nack, acked), (rtt, tc, fbs)) ->
          { ev_gap = gap; ev_nack = nack;
            ev_acked = (if nack then 0 else acked);
            ev_rtt = (if nack then None else rtt); ev_tc = tc; ev_fbs = fbs })
        (pair
           (triple (int_range 0 40_000)
              (frequency [ (4, return false); (1, return true) ])
              (int_range 1 1440))
           (triple (opt (int_range 0 200_000)) (int_range 0 1)
              (list_size (0 -- 5) entry_gen))))
  in
  let algo_gen =
    QCheck.Gen.oneofl
      [ Cc.Aimd; Cc.Dctcp; Cc.Rcp; Cc.Swift ]
  in
  QCheck.Test.make ~name:"feedback fold matches per-pathlet grouping" ~count:300
    (QCheck.make QCheck.Gen.(pair algo_gen (list_size (1 -- 80) event_gen)))
    (fun (algo, events) ->
      let table = Pathlet.create ~mss:1440 algo in
      let reference = Hashtbl.create 8 in
      let ref_get r =
        match Hashtbl.find_opt reference r with
        | Some cc -> cc
        | None ->
          let cc = Ref_cc.create algo in
          Hashtbl.add reference r cc;
          cc
      in
      let now = ref 0 in
      List.for_all
        (fun ev ->
          now := !now + ev.ev_gap;
          let now = !now and acked = ev.ev_acked and rtt = ev.ev_rtt in
          Pathlet.on_ack table ~now ~acked
            ~rtt:(Option.value rtt ~default:(-1))
            ~implicit_trim:ev.ev_nack ~tc:ev.ev_tc ev.ev_fbs;
          (match Ref_cc.group_feedback ev.ev_fbs with
          | [] ->
            Ref_cc.on_ack
              (ref_get { Wire.path_id = 0; path_tc = ev.ev_tc })
              ~now ~acked ?rtt
              (if ev.ev_nack then [ Feedback.Trimmed ] else [])
          | groups ->
            List.iter
              (fun (r, fbs) -> Ref_cc.on_ack (ref_get r) ~now ~acked ?rtt fbs)
              groups);
          let known = Pathlet.known table in
          List.length known = Hashtbl.length reference
          && List.for_all
               (fun (r, cc) ->
                 let m = ref_get r in
                 Cc.window cc = Ref_cc.window m
                 && Cc.srtt cc = Ref_cc.srtt m
                 && Cc.rto cc = Ref_cc.rto m)
               known)
        events)

(* ----------------------------- Pathlet ----------------------------- *)

let test_pathlet_isolation_and_flight () =
  let table = Pathlet.create ~mss:1440 Cc.Aimd in
  let a = { Wire.path_id = 1; path_tc = 0 } in
  let b = { Wire.path_id = 2; path_tc = 0 } in
  let cc_a = Pathlet.get table a in
  Cc.on_ack cc_a ~now:1000 ~acked:14_400 ~rtt:10_000 [];
  checkb "windows independent" true
    (Cc.window (Pathlet.get table a) > Cc.window (Pathlet.get table b));
  Pathlet.charge table [ a; b ] 5_000;
  checki "charged a" 5_000 (Pathlet.inflight table a);
  checki "charged b" 5_000 (Pathlet.inflight table b);
  Pathlet.discharge table [ a ] 5_000;
  checki "discharged a only" 0 (Pathlet.inflight table a);
  checki "b untouched" 5_000 (Pathlet.inflight table b);
  checkb "headroom is min across pathlets" true
    (Pathlet.headroom table [ a; b ]
    = min
        (Cc.window (Pathlet.get table a))
        (Cc.window (Pathlet.get table b) - 5_000))

let test_pathlet_per_path_algorithms () =
  let table = Pathlet.create ~mss:1440 Cc.Aimd in
  let r = { Wire.path_id = 7; path_tc = 1 } in
  Pathlet.set_algo_for table r Cc.Rcp;
  (match Cc.algo (Pathlet.get table r) with
  | Cc.Rcp -> ()
  | _ -> Alcotest.fail "algorithm override ignored");
  match Cc.algo (Pathlet.get table { Wire.path_id = 8; path_tc = 1 }) with
  | Cc.Aimd -> ()
  | _ -> Alcotest.fail "default algorithm wrong"

(* ----------------------------- Endpoint ---------------------------- *)

let mtp_pair ?(rate = Engine.Time.gbps 10) ?(delay = Engine.Time.us 2)
    ?ab_qdisc ?algo () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  let ab, _ = Topology.wire_host_pair topo a b ~rate ~delay ?ab_qdisc () in
  let ea = Endpoint.attach ?algo (Host.create a) in
  let eb = Endpoint.attach ?algo (Host.create b) in
  (sim, a, b, ab, ea, eb)

let test_endpoint_single_packet_message () =
  let sim, _, b, _, ea, eb = mtp_pair () in
  let got = ref [] in
  Endpoint.bind eb ~port:80 (fun d -> got := d :: !got);
  let fct = ref 0 in
  ignore
    (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~cookie:11 ~cookie2:22
       ~on_complete:(fun t -> fct := t)
       ~size:500 ());
  Engine.Sim.run sim;
  match !got with
  | [ d ] ->
    checki "size" 500 d.Endpoint.dl_size;
    checki "cookie" 11 d.Endpoint.dl_cookie;
    checki "cookie2" 22 d.Endpoint.dl_cookie2;
    checkb "fct recorded" true (!fct > 0);
    checki "sender completed" 1 (Endpoint.completed ea)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_endpoint_multi_packet_message () =
  let sim, _, b, _, ea, eb = mtp_pair () in
  let got = ref 0 in
  Endpoint.bind eb ~port:80 (fun d ->
      got := d.Endpoint.dl_size;
      checki "msg pkts reassembled" 1_000_000 d.Endpoint.dl_size);
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:1_000_000 ());
  Engine.Sim.run sim;
  checki "delivered" 1_000_000 !got;
  checki "bytes counted" 1_000_000 (Endpoint.delivered_bytes eb);
  checki "no retransmits on clean path" 0 (Endpoint.retransmits ea)

let test_endpoint_messages_independent () =
  (* Many concurrent messages complete, each exactly once. *)
  let sim, _, b, _, ea, eb = mtp_pair () in
  let done_ids = ref [] in
  Endpoint.bind eb ~port:80 (fun d ->
      done_ids := d.Endpoint.dl_msg_id :: !done_ids);
  let ids =
    List.init 20 (fun i ->
        Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80
          ~size:((i * 997 mod 30_000) + 1)
          ())
  in
  Engine.Sim.run sim;
  Alcotest.(check (list int))
    "all messages delivered exactly once" (List.sort compare ids)
    (List.sort compare !done_ids)

let test_endpoint_recovers_from_loss () =
  let sim, _, b, _, ea, eb =
    mtp_pair ~rate:(Engine.Time.gbps 1)
      ~ab_qdisc:(Qdisc.fifo ~cap_pkts:8 ())
      ()
  in
  let got = ref 0 in
  Endpoint.bind eb ~port:80 (fun d -> got := d.Endpoint.dl_size);
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:3_000_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 1000) sim;
  checki "complete despite drops" 3_000_000 !got;
  checkb "retransmissions happened" true (Endpoint.retransmits ea > 0)

let test_endpoint_ndp_trimming_fast_recovery () =
  let sim, _, b, _, ea, eb =
    mtp_pair ~rate:(Engine.Time.gbps 1)
      ~ab_qdisc:(Qdisc.trimming ~cap_pkts:8 ())
      ()
  in
  let got = ref 0 in
  Endpoint.bind eb ~port:80 (fun d -> got := d.Endpoint.dl_size);
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:2_000_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 100) sim;
  checki "complete despite trimming" 2_000_000 !got;
  checkb "NACKs drove recovery" true (Endpoint.nacks_received ea > 0);
  checkb "no RTO needed (NACKs are immediate)" true
    (Endpoint.timeouts ea = 0)

let test_endpoint_priority_scheduling () =
  (* A low-priority elephant and a high-priority mouse start together
     on a slow link; the mouse must finish first by a wide margin. *)
  let sim, _, b, _, ea, eb = mtp_pair ~rate:(Engine.Time.mbps 100) () in
  Endpoint.bind eb ~port:80 (fun _ -> ());
  let elephant_done = ref 0 and mouse_done = ref 0 in
  ignore
    (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~pri:5
       ~on_complete:(fun _ -> elephant_done := Engine.Sim.now sim)
       ~size:2_000_000 ());
  ignore
    (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~pri:0
       ~on_complete:(fun _ -> mouse_done := Engine.Sim.now sim)
       ~size:20_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 1000) sim;
  checkb "both completed" true (!elephant_done > 0 && !mouse_done > 0);
  checkb "high priority first" true (!mouse_done * 4 < !elephant_done)

let test_endpoint_receiver_bounds () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 2) ());
  let ea = Endpoint.attach (Host.create a) in
  let eb = Endpoint.attach ~max_msg_bytes:10_000 (Host.create b) in
  let got = ref 0 in
  Endpoint.bind eb ~port:80 (fun _ -> incr got);
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:50_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 5) sim;
  checki "oversized message refused" 0 !got;
  checkb "rejections counted" true (Endpoint.rejected eb > 0)

let test_endpoint_feedback_loop_with_stamping () =
  (* An MTP-aware bottleneck stamps ECN feedback; the DCTCP controller
     must keep the queue bounded with no drops at all. *)
  let qd = Qdisc.fifo ~cap_pkts:128 () in
  let sim, _, b, ab, ea, eb =
    mtp_pair ~rate:(Engine.Time.gbps 1) ~ab_qdisc:qd ()
  in
  Mtp_switch.stamp sim ab ~path_id:3 ~mode:(Mtp_switch.Ecn_mark 20);
  let got = ref 0 in
  Endpoint.bind eb ~port:80 (fun d -> got := !got + d.Endpoint.dl_size);
  for _ = 1 to 4 do
    ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:500_000 ())
  done;
  Engine.Sim.run ~until:(Engine.Time.ms 100) sim;
  checki "all delivered" 2_000_000 !got;
  checki "ECN prevented all drops" 0 (qd.Qdisc.drops ());
  checki "no retransmits" 0 (Endpoint.retransmits ea);
  (* The sender learned about pathlet 3. *)
  let knows_path_3 =
    List.exists
      (fun (r, _) -> r.Wire.path_id = 3)
      (Pathlet.known (Endpoint.pathlets ea))
  in
  checkb "pathlet discovered from feedback" true knows_path_3

let test_endpoint_tracks_current_path () =
  let sim, _, b, ab, ea, eb = mtp_pair () in
  Mtp_switch.stamp sim ab ~path_id:9 ~mode:(Mtp_switch.Ecn_mark 20);
  Endpoint.bind eb ~port:80 (fun _ -> ());
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:100_000 ());
  Engine.Sim.run sim;
  match Endpoint.current_path ea ~dst:(Node.addr b) with
  | [ { Wire.path_id = 9; _ } ] -> ()
  | _ -> Alcotest.fail "current path not learned from ack feedback"

(* [current_path] lists the pathlets acks named, newest first.  Acks
   repeating the head of the list in order restamp it in place; any
   other order rebuilds it; a pathlet silent past its TTL drops out. *)
let test_endpoint_current_path_order () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 2) ());
  (* No endpoint on [b]: the only acks are the ones injected below. *)
  let ea = Endpoint.attach (Host.create a) in
  let id =
    Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:(20 * 1440) ()
  in
  let pa = { Wire.path_id = 1; path_tc = 0 } in
  let pb = { Wire.path_id = 2; path_tc = 0 } in
  let seen = ref [] in
  let pool = Packet.pool sim in
  let ack_at us pkt named =
    let fbs =
      List.map (fun r -> { Wire.fb_path = r; fb = Feedback.Ecn false }) named
    in
    let h =
      Wire.ack ~sack:[ { Wire.ref_msg = id; ref_pkt = pkt } ] ~nack:[] ~tc:0
        ~src_port:80 ~dst_port:0 ~msg_id:id ~ack_path_feedback:fbs
    in
    Engine.Sim.schedule sim ~at:(Engine.Time.us us) (fun () ->
        Node.receive a
          (Wire.packet pool ~src:(Node.addr b) ~dst:(Node.addr a)
             ~entity:0 (Wire.Mtp h));
        seen := Endpoint.current_path ea ~dst:(Node.addr b) :: !seen)
  in
  ack_at 1 0 [ pa ];
  ack_at 2 1 [ pa ];
  ack_at 3 2 [ pb; pa ];
  ack_at 4 3 [ pa; pb ];
  ack_at 5 4 [ pa; pb; pa ];
  (* [pb] was last named at 5 us; its TTL is 20 us. *)
  ack_at 40 5 [ pa ];
  ack_at 41 6 [ pb ];
  Engine.Sim.run ~until:(Engine.Time.us 50) sim;
  let ids = List.map (List.map (fun r -> r.Wire.path_id)) in
  Alcotest.(check (list (list int)))
    "current_path after each ack"
    [ [ 1 ]; [ 1 ]; [ 2; 1 ]; [ 1; 2 ]; [ 1; 2 ]; [ 1 ]; [ 2; 1 ] ]
    (ids (List.rev !seen))

(* One long message sprayed packet by packet over a two-path fabric
   whose links both stamp (two messages to one destination share its
   send budget, and the pump fills it from one of them, so two messages
   hashed onto the two paths leave one path nearly idle): acks for the
   two paths alternate, so
   most acks reorder the destination's pathlet list, and each such
   reorder restores the order from before the last one.  Once warm,
   that swap allocates nothing (measured: 0.001 words per acked
   packet; 48 when each reorder rebuilt the lists). *)
let test_endpoint_path_flips_allocate_nothing () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let g = Engine.Time.gbps 10 and delay = Engine.Time.us 1 in
  let tp =
    Topology.two_path topo ~rate_a:g ~rate_b:g ~delay_a:delay ~delay_b:delay
      ~edge_rate:(Engine.Time.gbps 40) ()
  in
  Netsim.Switch.set_forward tp.Topology.tp_ingress
    (Netsim.Routing.spray tp.Topology.tp_routes);
  Mtp_switch.stamp sim tp.Topology.tp_link_a ~path_id:1
    ~mode:(Mtp_switch.Ecn_mark 20);
  Mtp_switch.stamp sim tp.Topology.tp_link_b ~path_id:2
    ~mode:(Mtp_switch.Ecn_mark 20);
  (* No exclusion lists: their advisory half is rebuilt whenever the
     two paths' ECN marks change which one is congested. *)
  let ea = Endpoint.attach ~exclusion:false (Host.create tp.Topology.tp_src) in
  let eb = Endpoint.attach (Host.create tp.Topology.tp_dst) in
  Endpoint.bind eb ~port:80 (fun _ -> ());
  let dst = Node.addr tp.Topology.tp_dst in
  ignore (Endpoint.send ea ~dst ~dst_port:80 ~size:50_000_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 2) sim;
  let sends () =
    (Link.sends tp.Topology.tp_link_a, Link.sends tp.Topology.tp_link_b)
  in
  let acks = Endpoint.acks_sent eb and a0, b0 = sends () in
  let before = Gc.minor_words () in
  Engine.Sim.run ~until:(Engine.Time.ms 10) sim;
  let words = Gc.minor_words () -. before in
  let acked = Endpoint.acks_sent eb - acks and a1, b1 = sends () in
  checkb "thousands of packets acked" true (acked > 5_000);
  checkb "both paths carry data" true (a1 - a0 > 1_000 && b1 - b0 > 1_000);
  checki "still sending" 1 (Endpoint.active_messages ea);
  let per_ack = words /. float_of_int acked in
  checkb
    (Printf.sprintf "%.3f words per acked packet (%d acks)" per_ack acked)
    true (per_ack < 0.05)

(* The pump may skip a message whose next payload is at least one it
   already refused for the same (dst, tc), but never a smaller one: a
   short message behind a window-blocked elephant leaves at once. *)
let test_endpoint_short_message_passes_blocked_one () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 2) ());
  let ea = Endpoint.attach ~init_window:((3 * 1440) + 1000) (Host.create a) in
  let eb = Endpoint.attach (Host.create b) in
  Endpoint.bind eb ~port:80 (fun _ -> ());
  let flight () =
    Pathlet.inflight (Endpoint.pathlets ea) { Wire.path_id = 0; path_tc = 0 }
  in
  let send size =
    ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size ())
  in
  send 100_000;
  checki "elephant fills the window to an MTU short" (3 * 1440) (flight ());
  send 500;
  checki "short message leaves past the blocked elephant" ((3 * 1440) + 500)
    (flight ());
  send 1440;
  checki "full-MTU message stays queued" ((3 * 1440) + 500) (flight ());
  send 400;
  checki "smaller message still fits" ((3 * 1440) + 900) (flight ());
  send 450;
  checki "message over the headroom waits" ((3 * 1440) + 900) (flight ());
  send 100;
  checki "message of exactly the headroom leaves" ((3 * 1440) + 1000) (flight ());
  Engine.Sim.run sim;
  checki "every message completes" 6 (Endpoint.completed ea)

(* The exact send order of a mixed-priority backlog over a link that
   both trims (NACK recovery) and drops (RTO recovery): any change to
   the pump's scheduling decisions moves this digest. *)
let test_endpoint_send_sequence_pinned () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  let seq = Buffer.create 4096 and n = ref 0 and data = ref 0 in
  let inner = Qdisc.trimming ~cap_pkts:8 () in
  let enqueue p =
    match p.Packet.payload with
    | Wire.Mtp h when not h.Wire.is_ack ->
      incr data;
      if !data mod 37 = 0 then false
      else begin
        incr n;
        Buffer.add_string seq
          (Printf.sprintf "%d:%d," h.Wire.msg_id h.Wire.pkt_num);
        inner.Qdisc.enqueue p
      end
    | _ -> inner.Qdisc.enqueue p
  in
  let ab_qdisc =
    { inner with Qdisc.enqueue; enqueue_burst = Qdisc.burst_of_enqueue enqueue }
  in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 1)
       ~delay:(Engine.Time.us 2) ~ab_qdisc ());
  let ea = Endpoint.attach (Host.create a) in
  let eb = Endpoint.attach (Host.create b) in
  Endpoint.bind eb ~port:80 (fun _ -> ());
  let send i =
    ignore
      (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~pri:(i mod 3)
         ~size:((i * 7919 mod 40_000) + 1)
         ())
  in
  for i = 0 to 13 do
    send i
  done;
  Engine.Sim.schedule sim ~at:(Engine.Time.us 50) (fun () ->
      for i = 14 to 20 do
        send i
      done);
  Engine.Sim.run ~until:(Engine.Time.ms 50) sim;
  checki "all messages complete" 21 (Endpoint.completed ea);
  checkb "trimming drove NACKs" true (Endpoint.nacks_received ea > 0);
  checkb "drops drove RTOs" true (Endpoint.timeouts ea > 0);
  checki "data packets sent" 335 !n;
  Alcotest.(check string)
    "send sequence digest" "2c9c331a4e1bbc2b1f10d7a4073eeac3"
    (Digest.to_hex (Digest.string (Buffer.contents seq)))

(* The same over several (destination, traffic class) lanes: one client
   sends to the server and two other clients at two traffic classes.
   Its uplink is one stamped pathlet, so same-class lanes to different
   destinations share headroom, and it both trims and drops. *)
let test_endpoint_multi_lane_sequence_pinned () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let st =
    Topology.star topo ~n:3 ~rate:(Engine.Time.gbps 1)
      ~delay:(Engine.Time.us 2) ()
  in
  let a = st.Topology.st_clients.(0) in
  let dsts =
    [| st.Topology.st_server; st.Topology.st_clients.(1);
       st.Topology.st_clients.(2) |]
  in
  let seq = Buffer.create 4096 and n = ref 0 and data = ref 0 in
  let inner = Qdisc.trimming ~cap_pkts:8 () in
  let enqueue p =
    match p.Packet.payload with
    | Wire.Mtp h when not h.Wire.is_ack ->
      incr data;
      if !data mod 41 = 0 then false
      else begin
        incr n;
        Buffer.add_string seq
          (Printf.sprintf "%d:%d:%d," h.Wire.msg_id h.Wire.pkt_num
             p.Packet.dst);
        inner.Qdisc.enqueue p
      end
    | _ -> inner.Qdisc.enqueue p
  in
  let up = Node.uplink a in
  Link.set_qdisc up
    { inner with Qdisc.enqueue; enqueue_burst = Qdisc.burst_of_enqueue enqueue };
  Mtp_switch.stamp sim up ~path_id:1 ~mode:(Mtp_switch.Ecn_mark 20);
  let ea = Endpoint.attach (Host.create a) in
  Array.iter
    (fun d -> Endpoint.bind (Endpoint.attach (Host.create d)) ~port:80 ignore)
    dsts;
  (* Sub-MTU, exact multiples of the MTU and multi-packet remainders. *)
  let sizes = [| 700; 1440; 4320; 9000; 20_000; 1; 2880; 31_000 |] in
  let send i =
    ignore
      (Endpoint.send ea
         ~dst:(Node.addr dsts.(i mod 3))
         ~dst_port:80 ~pri:(i / 2 mod 3) ~tc:(i / 3 mod 2)
         ~size:sizes.(i mod Array.length sizes)
         ())
  in
  for i = 0 to 17 do
    send i
  done;
  Engine.Sim.schedule sim ~at:(Engine.Time.us 40) (fun () ->
      for i = 18 to 29 do
        send i
      done);
  Engine.Sim.run ~until:(Engine.Time.ms 50) sim;
  checki "all messages complete" 30 (Endpoint.completed ea);
  checkb "trimming drove NACKs" true (Endpoint.nacks_received ea > 0);
  checkb "drops drove RTOs" true (Endpoint.timeouts ea > 0);
  checki "data packets sent" 264 !n;
  Alcotest.(check string)
    "send sequence digest" "71d0c27da8fe60ff25d1a4ac4a4aa2da"
    (Digest.to_hex (Digest.string (Buffer.contents seq)))

let test_endpoint_rcp_rate_control () =
  (* An RCP-stamping bottleneck grants explicit rates; the endpoint's
     window must track the grant and the transfer completes without
     loss even with a small buffer. *)
  let qd = Qdisc.fifo ~cap_pkts:256 () in
  let sim, _, b, ab, ea, eb =
    mtp_pair ~rate:(Engine.Time.gbps 10) ~ab_qdisc:qd ~algo:Cc.Rcp ()
  in
  Mtp_switch.stamp sim ab ~path_id:5
    ~mode:(Mtp_switch.Rate_grant { capacity = Engine.Time.gbps 10 });
  let got = ref 0 in
  Endpoint.bind eb ~port:80 (fun d -> got := !got + d.Endpoint.dl_size);
  for _ = 1 to 2 do
    ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:2_000_000 ())
  done;
  Engine.Sim.run ~until:(Engine.Time.ms 100) sim;
  checki "all delivered under rate control" 4_000_000 !got;
  checki "rate grants avoided drops" 0 (qd.Qdisc.drops ());
  (* The pathlet controller holds an actual grant. *)
  let cc = Pathlet.get (Endpoint.pathlets ea) { Wire.path_id = 5; path_tc = 0 } in
  (match Cc.algo cc with Cc.Rcp -> () | _ -> Alcotest.fail "wrong algo");
  checkb "window sized by the grant" true (Cc.window cc > 10_000)

let test_endpoint_swift_delay_control () =
  (* A delay-stamping bottleneck with a Swift controller: queueing must
     stay moderate (the controller backs off on delay) and the transfer
     completes without loss. *)
  let qd = Qdisc.fifo ~cap_pkts:512 () in
  let sim, _, b, ab, ea, eb =
    mtp_pair ~rate:(Engine.Time.gbps 10) ~ab_qdisc:qd
      ~algo:Cc.Swift
      ()
  in
  Mtp_switch.stamp sim ab ~path_id:6 ~mode:Mtp_switch.Delay_report;
  let got = ref 0 in
  let max_queue = ref 0 in
  Endpoint.bind eb ~port:80 (fun d -> got := !got + d.Endpoint.dl_size);
  Engine.Sim.periodic sim ~interval:(Engine.Time.us 10) (fun () ->
      max_queue := max !max_queue (qd.Qdisc.pkt_length ());
      Engine.Sim.now sim < Engine.Time.ms 50);
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:5_000_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 100) sim;
  checki "delivered" 5_000_000 !got;
  checki "no drops" 0 (qd.Qdisc.drops ());
  (* 20 us at 10 Gbps is ~17 full packets; allow slack for bursts. *)
  checkb "delay target bounded the queue" true (!max_queue < 100)

let test_endpoint_path_exclusion_in_headers () =
  (* After congestion feedback, data headers must carry the congested
     pathlet in their exclude list. *)
  let sim, _, b, ab, ea, eb =
    mtp_pair ~rate:(Engine.Time.gbps 1)
      ~ab_qdisc:(Qdisc.fifo ~cap_pkts:64 ())
      ()
  in
  Mtp_switch.stamp sim ab ~path_id:9 ~mode:(Mtp_switch.Ecn_mark 4);
  Endpoint.bind eb ~port:80 (fun _ -> ());
  (* Observe data packets on the wire via a hook at the receiver. *)
  let saw_exclusion = ref false in
  let previous = Node.handler b in
  Node.set_handler b (fun pkt ->
      (match pkt.Packet.payload with
      | Wire.Mtp h when not h.Wire.is_ack ->
        if
          List.exists
            (fun (r : Wire.path_ref) -> r.Wire.path_id = 9)
            h.Wire.path_exclude
        then saw_exclusion := true
      | _ -> ());
      match previous with Some f -> f pkt | None -> ());
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:3_000_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 60) sim;
  checkb "congested pathlet advertised for exclusion" true !saw_exclusion

let test_endpoint_exclusion_can_be_disabled () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  let ab, _ =
    Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 1)
      ~delay:(Engine.Time.us 2)
      ~ab_qdisc:(Qdisc.fifo ~cap_pkts:64 ())
      ()
  in
  Mtp_switch.stamp sim ab ~path_id:9 ~mode:(Mtp_switch.Ecn_mark 4);
  let ea = Endpoint.attach ~exclusion:false (Host.create a) in
  let eb = Endpoint.attach (Host.create b) in
  Endpoint.bind eb ~port:80 (fun _ -> ());
  let saw_exclusion = ref false in
  let previous = Node.handler b in
  Node.set_handler b (fun pkt ->
      (match pkt.Packet.payload with
      | Wire.Mtp h when h.Wire.path_exclude <> [] -> saw_exclusion := true
      | _ -> ());
      match previous with Some f -> f pkt | None -> ());
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:2_000_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 60) sim;
  checkb "no exclude lists when disabled" false !saw_exclusion

let test_endpoint_ack_coalescing_correctness () =
  (* With 8x aggregation the transfer must still complete exactly and
     the ack packet count must drop well below one per data packet. *)
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 2) ());
  let ea = Endpoint.attach (Host.create a) in
  let eb = Endpoint.attach ~ack_every:8 (Host.create b) in
  let got = ref 0 in
  Endpoint.bind eb ~port:80 (fun d -> got := d.Endpoint.dl_size);
  let fct = ref 0 in
  ignore
    (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80
       ~on_complete:(fun t -> fct := t)
       ~size:1_000_000 ());
  Engine.Sim.run sim;
  checki "delivered" 1_000_000 !got;
  checkb "completed" true (!fct > 0);
  let data_pkts = (1_000_000 + 1439) / 1440 in
  checkb "acks aggregated" true
    (Endpoint.acks_sent eb * 4 < data_pkts);
  checki "no spurious retransmits from delayed acks" 0
    (Endpoint.retransmits ea)

let test_endpoint_ack_coalescing_with_loss () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 1)
       ~delay:(Engine.Time.us 2)
       ~ab_qdisc:(Qdisc.trimming ~cap_pkts:8 ())
       ());
  let ea = Endpoint.attach (Host.create a) in
  let eb = Endpoint.attach ~ack_every:8 (Host.create b) in
  let got = ref 0 in
  Endpoint.bind eb ~port:80 (fun d -> got := d.Endpoint.dl_size);
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:1_000_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 100) sim;
  checki "reliable with coalescing + trimming" 1_000_000 !got;
  checkb "NACKs still flushed immediately" true
    (Endpoint.nacks_received ea > 0)

(* ------------------------- Recycled headers ------------------------ *)

let test_endpoint_headers_reach_steady_state () =
  (* 100 KB messages back to back over a lossless 10G pair: once warm,
     every data packet and ack is sent in the header of a packet its
     sender handled earlier, so thousands of packets between 2 and
     10 ms share a small fixed set of headers. *)
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  let ab, ba =
    Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2) ()
  in
  let ea = Endpoint.attach (Host.create a) in
  let eb = Endpoint.attach (Host.create b) in
  Endpoint.bind eb ~port:80 (fun _ -> ());
  let rec next () =
    ignore
      (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80
         ~on_complete:(fun _ -> next ())
         ~size:100_000 ())
  in
  next ();
  Engine.Sim.run ~until:(Engine.Time.ms 2) sim;
  (* Distinct headers by physical identity. *)
  let headers = ref [] and pkts = ref 0 in
  let tap _ p =
    match p.Packet.payload with
    | Wire.Mtp h ->
      incr pkts;
      if not (List.memq h !headers) then headers := h :: !headers
    | _ -> ()
  in
  Link.add_tap ab tap;
  Link.add_tap ba tap;
  Engine.Sim.run ~until:(Engine.Time.ms 10) sim;
  let n = List.length !headers in
  checkb "thousands of packets" true (!pkts > 5_000);
  checkb (Printf.sprintf "%d headers for %d packets" n !pkts) true (n <= 128)

(* Minor words per acked packet of one 20 MB message between the two
   hosts [wire] builds, the sender's link ECN-stamped to bound the
   window, from 2 to 10 ms (after warm-up). *)
let steady_words_per_ack wire =
  let sim = Engine.Sim.create () in
  let a, b, link = wire (Topology.create sim) in
  Mtp_switch.stamp sim link ~path_id:7 ~mode:(Mtp_switch.Ecn_mark 20);
  let ea = Endpoint.attach (Host.create a) in
  let eb = Endpoint.attach (Host.create b) in
  Endpoint.bind eb ~port:80 (fun _ -> ());
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size:20_000_000 ());
  Engine.Sim.run ~until:(Engine.Time.ms 2) sim;
  let acks = Endpoint.acks_sent eb in
  let before = Gc.minor_words () in
  Engine.Sim.run ~until:(Engine.Time.ms 10) sim;
  let words = Gc.minor_words () -. before in
  let acked = Endpoint.acks_sent eb - acks in
  checkb "thousands of packets acked" true (acked > 5_000);
  checki "still sending" 1 (Endpoint.active_messages ea);
  words /. float_of_int acked

let test_endpoint_steady_state_allocates_nothing () =
  (* One lane, twice: a client and the server of a 10G star (hosts on
     uplinks), and a host pair (each host routes its peer through a
     route entry, so [Node.link_for] looks it up on every send).  Once
     warm, sending, acking and the retransmission tick run on kept
     state: an immediate ack names its packet in its box's own SACK
     cell, a send takes a slot of the flight table, and a route lookup
     boxes no option.  Each exchange allocates less than a word per
     acked packet (measured: 0.032 and 0.037); a one-entry SACK list per
     ack would add 6, an [Inflight] record per send 4, and an option
     per route lookup 4. *)
  let g = Engine.Time.gbps 10 and delay = Engine.Time.us 2 in
  let star topo =
    let st = Topology.star topo ~n:1 ~rate:g ~delay () in
    let a = st.Topology.st_clients.(0) in
    (a, st.Topology.st_server, Node.uplink a)
  in
  let pair topo =
    let a = Topology.host topo "a" and b = Topology.host topo "b" in
    let ab, _ = Topology.wire_host_pair topo a b ~rate:g ~delay () in
    (a, b, ab)
  in
  List.iter
    (fun (what, wire) ->
      let per_pkt = steady_words_per_ack wire in
      checkb
        (Printf.sprintf "%s: %.3f words per acked packet" what per_pkt)
        true (per_pkt < 1.0))
    [ ("star", star); ("host pair", pair) ]

(* A warm host pair exchanging 1-packet messages, one outstanding (a
   completion sends the next): per message, the sender reuses a
   finished message's record and its packet-state array, and the
   receiver a delivered one's record and bitmap.  What is left is the
   two tables' entries, the receiver's recently-done entry, the
   binding's delivery record, and the caller's completion closure and
   its option (measured: 34 words per message; 86 with fresh records
   and arrays per message). *)
let test_endpoint_messages_recycle_records () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 2) ());
  let ea = Endpoint.attach (Host.create a) in
  let eb = Endpoint.attach (Host.create b) in
  let delivered = ref 0 in
  Endpoint.bind eb ~port:80 (fun d ->
      incr delivered;
      if d.Endpoint.dl_size <> 1440 then
        Alcotest.failf "delivered %d bytes, not one packet's" d.Endpoint.dl_size);
  let completed = ref 0 in
  let rec next () =
    ignore
      (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80
         ~on_complete:(fun fct ->
           incr completed;
           if fct <= 0 then Alcotest.fail "completion time not positive";
           next ())
         ~size:1440 ())
  in
  next ();
  Engine.Sim.run ~until:(Engine.Time.ms 1) sim;
  let done0 = !completed in
  let before = Gc.minor_words () in
  Engine.Sim.run ~until:(Engine.Time.ms 11) sim;
  let words = Gc.minor_words () -. before in
  let msgs = !completed - done0 in
  checkb (Printf.sprintf "%d messages" msgs) true (msgs > 1_000);
  checkb "every completed message delivered, the last ack at most in flight"
    true
    (!delivered - !completed = 0 || !delivered - !completed = 1);
  Endpoint.check_pump ea;
  Endpoint.check_pump eb;
  let per_msg = words /. float_of_int msgs in
  checkb
    (Printf.sprintf "%.2f words per message (bar 40)" per_msg)
    true (per_msg < 40.0)

(* Eight 10-packet messages outstanding, so the pump keeps quantum
   users in [again] across rounds, with a 1-packet reply per delivery
   from the receiver to a port of its own.  Every 5 us both endpoints'
   bookkeeping is checked, free lists included: a parked record must
   be in no table, in neither [active] nor [again], and hold no flight
   slot.  Every message completes once and is delivered once, at its
   own size. *)
let test_endpoint_free_lists_hold_finished_records () =
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 2)
       ~ab_qdisc:(Qdisc.trimming ~cap_pkts:16 ())
       ());
  let ea = Endpoint.attach (Host.create a) in
  let eb = Endpoint.attach (Host.create b) in
  let total = 400 in
  let sizes = Hashtbl.create total and completions = Hashtbl.create total in
  let replies = ref 0 in
  Endpoint.bind ea ~port:81 (fun _ -> incr replies);
  Endpoint.bind eb ~port:80 (fun d ->
      let id = d.Endpoint.dl_msg_id in
      if Hashtbl.find sizes id <> d.Endpoint.dl_size then
        Alcotest.failf "message %d delivered %d bytes, not %d" id
          d.Endpoint.dl_size (Hashtbl.find sizes id);
      Hashtbl.replace sizes id (-1);
      ignore (Endpoint.send eb ~dst:(Node.addr a) ~dst_port:81 ~size:100 ()));
  let started = ref 0 in
  let rec start () =
    if !started < total then begin
      incr started;
      let size = (10 * 1440) - (!started mod 7 * 100) in
      let id = ref (-1) in
      id :=
        Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size
          ~on_complete:(fun _ ->
            if Hashtbl.mem completions !id then
              Alcotest.failf "message %d completed twice" !id;
            Hashtbl.add completions !id ();
            start ())
          ();
      Hashtbl.replace sizes !id size
    end
  in
  for _ = 1 to 8 do
    start ()
  done;
  Engine.Sim.periodic sim ~interval:(Engine.Time.us 5) (fun () ->
      Endpoint.check_pump ea;
      Endpoint.check_pump eb;
      Endpoint.active_messages ea > 0);
  Engine.Sim.run ~until:(Engine.Time.ms 50) sim;
  checki "all completed" total (Hashtbl.length completions);
  checki "all delivered once" total (Endpoint.delivered_messages eb);
  checki "every reply delivered" total !replies;
  checkb "losses recovered" true (Endpoint.retransmits ea > 0);
  Endpoint.check_pump ea;
  Endpoint.check_pump eb

let test_host_pool_capped () =
  (* The hosts of one simulator share a pool, so a steady exchange
     parks little: what one host releases the next send takes.  A
     burst parks its whole peak: a sender whose initial window admits
     a message of one and a half caps' worth of packets queues them
     all at once, every one fresh, and a receiver acking every 16th
     packet claims 16 for each one it sends.  The pool fills until it
     holds [Packet.max_parked], and leaves the rest to the GC. *)
  let pkts = Packet.max_parked * 3 / 2 in
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  let ab, _ =
    Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2)
      ~ab_qdisc:(Qdisc.fifo ~cap_pkts:(2 * pkts) ())
      ()
  in
  let size = pkts * 1440 in
  let ea = Endpoint.attach ~init_window:(2 * size) (Host.create a) in
  let hb = Host.create b in
  let eb = Endpoint.attach ~ack_every:16 hb in
  Endpoint.bind eb ~port:80 (fun _ -> ());
  let deepest = ref 0 in
  Link.add_tap ab (fun _ _ ->
      deepest := Int.max !deepest (Packet.pool_free (Node.pool b)));
  ignore (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size ());
  Engine.Sim.run sim;
  checki "delivered" 1 (Endpoint.delivered_messages eb);
  checki "reaches the cap, never past it" Packet.max_parked !deepest;
  checki "holds the cap at the end" Packet.max_parked
    (Packet.pool_free (Node.pool b))

let test_endpoint_completion_send_keeps_nack () =
  (* One ack SACKs a's first message, which completes it, and NACKs a
     packet of its second; the completion callback sends a third
     message at once, while the ack is still being read.  That send
     must not be handed the ack's record: released before handling, the
     ack's header would be refilled for the new data packet and its
     NACK lost. *)
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  ignore
    (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
       ~delay:(Engine.Time.us 2) ());
  let ea = Endpoint.attach (Host.create a) in
  let hb = Host.create b in
  let send size = Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size () in
  let first =
    Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80
      ~on_complete:(fun _ -> ignore (send 1440))
      ~size:1440 ()
  in
  let second = send 2880 in
  Engine.Sim.run ~until:(Engine.Time.us 20) sim;
  checki "b got every data packet" 3 (Host.unclaimed hb);
  let ack =
    Wire.ack
      ~sack:[ { Wire.ref_msg = first; ref_pkt = 0 } ]
      ~nack:[ { Wire.ref_msg = second; ref_pkt = 1 } ]
      ~tc:0 ~src_port:80 ~dst_port:0 ~msg_id:first ~ack_path_feedback:[]
  in
  Node.receive a
    (Wire.packet (Node.pool b) ~src:(Node.addr b) ~dst:(Node.addr a)
       ~entity:0 (Wire.Mtp ack));
  checki "first completed" 1 (Endpoint.completed ea);
  checki "the NACK was read" 1 (Endpoint.nacks_received ea);
  checki "and its packet resent at once" 1 (Endpoint.retransmits ea)

let test_endpoint_coalesced_ack_outlives_header () =
  (* b coalesces acks 4 at a time.  a's second message loses its second
     packet, so b holds an ack for its first one until the [ack_delay]
     timer.  Meanwhile b sends a message of its own, in the header of
     the very packet that ack answers (the top of b's host pool).
     The flushed ack must still carry that packet's class, ports and
     msg id. *)
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.host topo "a" and b = Topology.host topo "b" in
  let inner = Qdisc.fifo ~cap_pkts:64 () in
  let dropped = ref false in
  let enqueue p =
    match p.Packet.payload with
    | Wire.Mtp h
      when (not h.Wire.is_ack) && h.Wire.msg_id = 2 && h.Wire.pkt_num = 1
           && not !dropped ->
      dropped := true;
      false
    | _ -> inner.Qdisc.enqueue p
  in
  let _, ba =
    Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 2)
      ~ab_qdisc:
        { inner with Qdisc.enqueue; enqueue_burst = Qdisc.burst_of_enqueue enqueue }
      ()
  in
  let ea = Endpoint.attach (Host.create a) in
  let eb = Endpoint.attach ~ack_every:4 (Host.create b) in
  Endpoint.bind ea ~port:81 (fun _ -> ());
  Endpoint.bind eb ~port:80 (fun _ -> ());
  let acks = ref [] in
  Link.add_tap ba (fun _ p ->
      match p.Packet.payload with
      | Wire.Mtp h when h.Wire.is_ack ->
        acks :=
          ( List.map (fun r -> (r.Wire.ref_msg, r.Wire.ref_pkt)) h.Wire.sack,
            [ h.Wire.src_port; h.Wire.dst_port; h.Wire.msg_id; h.Wire.msg_tc ]
          )
          :: !acks
      | _ -> ());
  let send_a ~size =
    ignore
      (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~src_port:7000 ~tc:3
         ~size ())
  in
  send_a ~size:1440;
  send_a ~size:2880;
  Engine.Sim.schedule sim ~at:(Engine.Time.us 8) (fun () ->
      ignore
        (Endpoint.send eb ~dst:(Node.addr a) ~dst_port:81 ~src_port:9000
           ~size:1440 ()));
  Engine.Sim.run ~until:(Engine.Time.ms 5) sim;
  checkb "second packet dropped once" true !dropped;
  checki "both of a's messages completed" 2 (Endpoint.completed ea);
  match List.assoc_opt [ (2, 0) ] !acks with
  | Some fields ->
    Alcotest.(check (list int))
      "ports, msg id and class of the acked packet" [ 80; 7000; 2; 3 ] fields
  | None -> Alcotest.fail "no timer-flushed ack for (2, 0) alone"

let test_blob_survives_loss () =
  let sim, _, b, _, ea, eb =
    mtp_pair ~rate:(Engine.Time.gbps 1)
      ~ab_qdisc:(Qdisc.fifo ~cap_pkts:12 ())
      ()
  in
  let done_size = ref 0 in
  ignore
    (Blob.receiver eb ~port:81 (fun ~src:_ ~blob_id:_ ~size ->
         done_size := size));
  Blob.send ea ~dst:(Node.addr b) ~dst_port:81 ~blob_id:9 ~size:1_000_000 ();
  Engine.Sim.run ~until:(Engine.Time.ms 1000) sim;
  checki "blob complete despite drops" 1_000_000 !done_size;
  checkb "losses actually happened" true (Endpoint.retransmits ea > 0)

(* qcheck: any batch of message sizes is delivered exactly once with
   exact sizes, even over a lossy link. *)
let prop_exactly_once_delivery =
  QCheck.Test.make ~name:"endpoint delivers every message exactly once"
    ~count:25
    QCheck.(list_of_size Gen.(1 -- 12) (int_range 1 40_000))
    (fun sizes ->
      let sim = Engine.Sim.create () in
      let topo = Topology.create sim in
      let a = Topology.host topo "a" and b = Topology.host topo "b" in
      ignore
        (Topology.wire_host_pair topo a b ~rate:(Engine.Time.gbps 1)
           ~delay:(Engine.Time.us 2)
           ~ab_qdisc:(Qdisc.fifo ~cap_pkts:12 ())
           ());
      let ea = Endpoint.attach (Host.create a) in
      let eb = Endpoint.attach (Host.create b) in
      let deliveries = ref [] in
      Endpoint.bind eb ~port:80 (fun d ->
          deliveries := (d.Endpoint.dl_msg_id, d.Endpoint.dl_size) :: !deliveries);
      let expected =
        List.map
          (fun size ->
            (Endpoint.send ea ~dst:(Node.addr b) ~dst_port:80 ~size (), size))
          sizes
      in
      Engine.Sim.run ~until:(Engine.Time.ms 2000) sim;
      List.sort compare !deliveries = List.sort compare expected)

(* ------------------------------- Blob ------------------------------ *)

let test_blob_roundtrip () =
  let sim, _, b, _, ea, eb = mtp_pair () in
  let done_blobs = ref [] in
  ignore
    (Blob.receiver eb ~port:81 (fun ~src:_ ~blob_id ~size ->
         done_blobs := (blob_id, size) :: !done_blobs));
  let fct = ref 0 in
  Blob.send ea ~dst:(Node.addr b) ~dst_port:81 ~blob_id:5 ~size:100_000
    ~on_complete:(fun t -> fct := t)
    ();
  Engine.Sim.run sim;
  Alcotest.(check (list (pair int int))) "blob reassembled" [ (5, 100_000) ]
    !done_blobs;
  checkb "sender completion" true (!fct > 0)

let test_blob_interleaved () =
  let sim, _, b, _, ea, eb = mtp_pair () in
  let rx = Blob.receiver eb ~port:81 (fun ~src:_ ~blob_id:_ ~size:_ -> ()) in
  Blob.send ea ~dst:(Node.addr b) ~dst_port:81 ~blob_id:1 ~size:50_000 ();
  Blob.send ea ~dst:(Node.addr b) ~dst_port:81 ~blob_id:2 ~size:70_000 ();
  Engine.Sim.run sim;
  checki "both blobs completed" 2 (Blob.blobs_completed rx)

(* ------------------------------ Policy ----------------------------- *)

let test_policy_shares () =
  let p = Policy.equal_shares ~entities:[ 10; 20 ] in
  Alcotest.(check (float 1e-9)) "equal" 0.5 (Policy.share p 10);
  Alcotest.(check (float 1e-9)) "unknown" 0.0 (Policy.share p 99);
  let w = Policy.weighted [ (1, 3.0); (2, 1.0) ] in
  Alcotest.(check (float 1e-9)) "weighted" 0.75 (Policy.share w 1);
  checki "class indices dense" 1 (Policy.class_of w 2)

let test_policy_install_fair_share () =
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.create (Netsim.Packet.pool sim) ~name:"l"
      ~rate:(Engine.Time.gbps 10) ~delay:0 ()
  in
  let p = Policy.equal_shares ~entities:[ 1; 2 ] in
  Policy.install_fair_share p link ~cap_pkts:128 ~mark_threshold:4;
  let q = Netsim.Link.qdisc link in
  Alcotest.(check string) "fair_mark installed" "fair_mark" q.Qdisc.name

(* ---------------------------- Mtp_switch --------------------------- *)

let test_msg_lb_balances_by_size () =
  (* Two messages of very different sizes then a stream of small ones:
     commitments steer small messages to the other path. *)
  let sim = Engine.Sim.create () in
  let topo = Topology.create sim in
  let tp =
    Topology.two_path topo ~rate_a:(Engine.Time.gbps 100)
      ~rate_b:(Engine.Time.gbps 100) ~delay_a:(Engine.Time.us 1)
      ~delay_b:(Engine.Time.us 1) ~edge_rate:(Engine.Time.gbps 100) ()
  in
  let eb = Endpoint.attach (Host.create tp.Topology.tp_dst) in
  Endpoint.bind eb ~port:80 (fun _ -> ());
  let ea = Endpoint.attach (Host.create tp.Topology.tp_src) in
  let lb =
    Mtp_switch.msg_lb tp.Topology.tp_ingress
      ~dst:(Node.addr tp.Topology.tp_dst)
      ~ports:[| tp.Topology.tp_port_a; tp.Topology.tp_port_b |]
      ~fallback:(Netsim.Routing.static tp.Topology.tp_routes)
  in
  (* One 10 MB elephant; shortly after, twenty high-priority 10 KB
     mice while the elephant is still in flight. *)
  ignore
    (Endpoint.send ea ~dst:(Node.addr tp.Topology.tp_dst) ~dst_port:80 ~pri:1
       ~size:10_000_000 ());
  Engine.Sim.schedule sim ~at:(Engine.Time.us 50) (fun () ->
      for _ = 1 to 20 do
        ignore
          (Endpoint.send ea ~dst:(Node.addr tp.Topology.tp_dst)
             ~dst_port:80 ~pri:0 ~size:10_000 ())
      done);
  Engine.Sim.run ~until:(Engine.Time.ms 20) sim;
  let assigned = Mtp_switch.lb_assignments lb in
  checki "elephant alone on one path" 1 assigned.(0);
  checki "mice all on the other" 20 assigned.(1)

let test_exclusion_aware_routing () =
  let sim = Engine.Sim.create () in
  let routes = Netsim.Routing.create () in
  Netsim.Routing.add routes 5 0;
  Netsim.Routing.add routes 5 1;
  let port_paths = [ (0, 100); (1, 200) ] in
  let pool = Packet.pool sim in
  let header =
    Wire.data ~pri:0 ~tc:0 ~cookie:0 ~cookie2:0
      ~exclude:[ { Wire.path_id = 100; path_tc = 0 } ]
      ~src_port:1 ~dst_port:2 ~msg_id:1 ~msg_len:100 ~msg_pkts:1 ~pkt_num:0
      ~pkt_offset:0 ~pkt_len:100
  in
  let pkt = Wire.packet pool ~src:1 ~dst:5 ~entity:0 (Wire.Mtp header) in
  (match Mtp_switch.exclusion_aware ~port_paths routes pkt with
  | Netsim.Switch.Forward 1 -> ()
  | _ -> Alcotest.fail "should avoid excluded pathlet 100 (port 0)");
  (* All excluded: fall back to hashing rather than dropping. *)
  let header_all =
    Wire.data ~pri:0 ~tc:0 ~cookie:0 ~cookie2:0
      ~exclude:
        [ { Wire.path_id = 100; path_tc = 0 };
          { Wire.path_id = 200; path_tc = 0 } ]
      ~src_port:1 ~dst_port:2 ~msg_id:2 ~msg_len:100 ~msg_pkts:1 ~pkt_num:0
      ~pkt_offset:0 ~pkt_len:100
  in
  let pkt_all = Wire.packet pool ~src:1 ~dst:5 ~entity:0 (Wire.Mtp header_all) in
  match Mtp_switch.exclusion_aware ~port_paths routes pkt_all with
  | Netsim.Switch.Forward _ -> ()
  | _ -> Alcotest.fail "must still forward when everything is excluded"

let data_header ~msg_id =
  Wire.data ~pri:0 ~tc:0 ~cookie:0 ~cookie2:0 ~exclude:[] ~src_port:1
    ~dst_port:2 ~msg_id ~msg_len:1440 ~msg_pkts:1 ~pkt_num:0 ~pkt_offset:0
    ~pkt_len:1440

let test_stamp_fresh_header_allocates_nothing () =
  (* An ECN-stamped queue takes 10 000 packets whose headers carry no
     feedback yet: the first half sit below the marking threshold, the
     rest above, so both shared one-entry lists are handed out. *)
  let n = 10_000 in
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let link =
    Link.create pool ~name:"l" ~rate:(Engine.Time.gbps 10)
      ~delay:(Engine.Time.us 1)
      ~qdisc:(Qdisc.fifo ~cap_pkts:(2 * n) ())
      ()
  in
  Mtp_switch.stamp sim link ~path_id:7 ~mode:(Mtp_switch.Ecn_mark (n / 2));
  let q = Link.qdisc link in
  (* Warm up: the hook meets traffic class 0 once (its stamps are made
     then), and the FIFO's storage grows with packets the hook
     ignores. *)
  ignore
    (q.Qdisc.enqueue
       (Wire.packet pool ~src:1 ~dst:2 ~entity:0
          (Wire.Mtp (data_header ~msg_id:n))));
  let raw = Testpkt.raw ~src:1 ~dst:2 ~size:64 sim in
  for _ = 2 to n do
    ignore (q.Qdisc.enqueue raw)
  done;
  for _ = 1 to n do
    ignore (q.Qdisc.dequeue ())
  done;
  let pkts =
    Array.init n (fun i ->
        Wire.packet pool ~src:1 ~dst:2 ~entity:0
          (Wire.Mtp (data_header ~msg_id:i)))
  in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (q.Qdisc.enqueue pkts.(i))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "no minor words" 0.0 words;
  let fb i =
    match pkts.(i).Packet.payload with
    | Wire.Mtp h -> h.Wire.path_feedback
    | _ -> Alcotest.fail "not an MTP packet"
  in
  let ecn_of i =
    match fb i with
    | [ { Wire.fb = Feedback.Ecn b; _ } ] -> b
    | _ -> Alcotest.fail "expected one ECN entry"
  in
  checkb "shallow queue unmarked" false (ecn_of 0);
  checkb "deep queue marked" true (ecn_of (n - 1));
  checkb "one list per verdict" true (fb 0 == fb 1 && fb (n - 2) == fb (n - 1));
  checki "wire size counts the entry"
    (Wire.encoded_size (data_header ~msg_id:0) + 6 + 1440)
    pkts.(0).Packet.size

(* Words for [n] packets taken from [pool] and released at once, the
   [i]-th with payload [payload i]. *)
let wire_packet_words pool n payload =
  let before = Gc.minor_words () in
  for i = 1 to n do
    let p = Wire.packet pool ~src:1 ~dst:2 ~entity:0 (payload i) in
    Packet.release pool (Sys.opaque_identity p)
  done;
  Gc.minor_words () -. before

let box_words () = 1 + Obj.size (Obj.repr (Wire.Mtp (data_header ~msg_id:1)))

let test_wire_packet_allocates_record_and_box () =
  (* A sender that boxes a header per packet, from an empty pool: one
     packet record and one [Mtp] box per call, nothing else (no option
     boxes for [Packet.take]'s labels).  No packet is released, so the
     pool never has one to hand back. *)
  let n = 10_000 in
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let header = data_header ~msg_id:1 in
  let record_words = 1 + Obj.size (Obj.repr Packet.none) in
  let box_words = box_words () in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore
      (Sys.opaque_identity
         (Wire.packet pool ~src:1 ~dst:2 ~entity:0 (Wire.Mtp header)))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0))
    "record + box per call"
    (float_of_int (n * (record_words + box_words)))
    words;
  checki "every record fresh" n (fst (Packet.pool_stats pool))

let test_wire_packet_warm_pool_allocates_box () =
  (* From a warm pool the record is reused: only the [Mtp] box (the
     extension constructor's slot and the header) is new. *)
  let n = 10_000 in
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let header = data_header ~msg_id:1 in
  let fresh_box _ = Wire.Mtp header in
  ignore (wire_packet_words pool 1 fresh_box);
  let words = wire_packet_words pool n fresh_box in
  Alcotest.(check (float 0.0))
    "box per call" (float_of_int (n * box_words ())) words;
  Alcotest.(check (pair int int)) "one fresh record" (1, n)
    (Packet.pool_stats pool)

let test_wire_packet_kept_box_allocates_nothing () =
  (* An endpoint refills the header of a packet it handled and sends
     its box again: from a warm pool, nothing is allocated. *)
  let n = 10_000 in
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let box = Wire.Mtp (Wire.blank ()) in
  let refill i =
    Wire.fill (Wire.header box) ~is_ack:false ~pri:0 ~tc:0 ~cookie:0
      ~cookie2:0 ~exclude:[] ~src_port:1 ~dst_port:2 ~msg_id:i
      ~msg_len:1440 ~msg_pkts:1 ~pkt_num:0 ~pkt_offset:0 ~pkt_len:1440
      ~sack:[] ~nack:[] ~ack_path_feedback:[];
    box
  in
  ignore (wire_packet_words pool 1 refill);
  Alcotest.(check (float 0.0))
    "no words" 0.0
    (wire_packet_words pool n refill);
  checkb "refilled in place" true
    (Wire.equal (Wire.header box) (data_header ~msg_id:n))

let test_stamp_shares_no_list_across_packets () =
  (* Two stamped links in series with a tap between them.  A crosses
     both; B stops at the tap after hop 1.  Both took hop 1's shared
     one-entry list; A's second stamp must copy it, not extend it. *)
  let sim = Engine.Sim.create () in
  let pool = Packet.pool sim in
  let mk name path_id =
    let l =
      Link.create pool ~name ~rate:(Engine.Time.gbps 10)
        ~delay:(Engine.Time.us 1) ()
    in
    Mtp_switch.stamp sim l ~path_id ~mode:(Mtp_switch.Ecn_mark 100);
    l
  in
  let hop1 = mk "hop1" 1 and hop2 = mk "hop2" 2 in
  let header_of p =
    match p.Packet.payload with
    | Wire.Mtp h -> h
    | _ -> Alcotest.fail "not an MTP packet"
  in
  let a = Wire.packet pool ~src:1 ~dst:2 ~entity:0
      (Wire.Mtp (data_header ~msg_id:1)) in
  let b = Wire.packet pool ~src:1 ~dst:2 ~entity:0
      (Wire.Mtp (data_header ~msg_id:2)) in
  let a_at_tap = ref [] in
  let delivered = ref 0 in
  Link.set_dst hop1 (fun p ->
      if p == a then begin
        a_at_tap := (header_of a).Wire.path_feedback;
        Link.send hop2 p
      end);
  Link.set_dst hop2 (fun _ -> incr delivered);
  Link.send hop1 a;
  Link.send hop1 b;
  Engine.Sim.run sim;
  checki "A crossed both hops" 1 !delivered;
  let paths h =
    List.map (fun e -> e.Wire.fb_path.Wire.path_id) h.Wire.path_feedback
  in
  Alcotest.(check (list int)) "A carries hop1; hop2" [ 1; 2 ]
    (paths (header_of a));
  Alcotest.(check (list int)) "B carries hop1 only" [ 1 ] (paths (header_of b));
  checkb "hop 1 shared one list" true
    (!a_at_tap == (header_of b).Wire.path_feedback);
  checki "the shared list was not extended" 1 (List.length !a_at_tap)

(* ----------------------------- Features ---------------------------- *)

let v = Alcotest.testable (Fmt.of_to_string Features.verdict_symbol) ( = )

let test_features_match_paper_rows () =
  let check_row tr expected =
    List.iter2
      (fun req e ->
        Alcotest.check v
          (Features.transport_name tr ^ "/" ^ Features.requirement_name req)
          e (Features.supports tr req))
      Features.all_requirements expected
  in
  (* All thirteen rows, straight from the paper's Table 1 (plus the
     MTP row the paper claims in §3.2). *)
  check_row Features.Tcp_passthrough_many_rpf
    Features.[ No; Yes; No; Yes; No ];
  check_row Features.Tcp_passthrough_one_rpf
    Features.[ No; Yes; No; No; Yes ];
  check_row Features.Tcp_termination_many_rpf
    Features.[ Yes; No; No; Yes; No ];
  check_row Features.Tcp_termination_one_rpf
    Features.[ Yes; No; Yes; No; Yes ];
  check_row Features.Dctcp Features.[ No; No; No; No; No ];
  check_row Features.Udp Features.[ Yes; Yes; Yes; No; No ];
  check_row Features.Quic Features.[ No; Yes; Yes; Unclear; No ];
  check_row Features.Mptcp Features.[ No; No; Yes; Yes; No ];
  check_row Features.Swift Features.[ No; Yes; No; No; No ];
  check_row Features.Rdma_rc Features.[ No; Yes; No; No; No ];
  check_row Features.Rdma_uc Features.[ No; Yes; No; No; No ];
  check_row Features.Rdma_ud Features.[ Yes; Yes; Yes; No; No ];
  check_row Features.Mtp Features.[ Yes; Yes; Yes; Yes; Yes ]

let test_features_quic_unclear () =
  Alcotest.check v "quic multi-resource is open" Features.Unclear
    (Features.supports Features.Quic
       Features.Multi_resource_multi_algorithm_cc)

let test_features_table_renders () =
  let table = Features.table () in
  checki "13 transports + MTP rows" 13 (List.length (Stats.Table.rows table))

let suite =
  [ Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire copy owns its cell" `Quick
      test_wire_copy_owns_its_cell;
    Alcotest.test_case "wire size" `Quick test_wire_size_matches;
    Alcotest.test_case "wire fixed size" `Quick test_wire_fixed_size_minimal;
    Alcotest.test_case "wire add feedback" `Quick test_wire_add_feedback_grows;
    Alcotest.test_case "wire golden vector" `Quick test_wire_golden_vector;
    Alcotest.test_case "wire packet allocates record and box" `Quick
      test_wire_packet_allocates_record_and_box;
    Alcotest.test_case "wire packet from a warm pool allocates the box" `Quick
      test_wire_packet_warm_pool_allocates_box;
    Alcotest.test_case "wire packet with a kept box allocates nothing" `Quick
      test_wire_packet_kept_box_allocates_nothing;
    Alcotest.test_case "stamp fresh header allocates nothing" `Quick
      test_stamp_fresh_header_allocates_nothing;
    Alcotest.test_case "stamp shares no list across packets" `Quick
      test_stamp_shares_no_list_across_packets;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "feedback tlv roundtrip" `Quick
      test_feedback_roundtrip_each;
    Alcotest.test_case "feedback congestion" `Quick
      test_feedback_congestion_signal;
    Alcotest.test_case "feedback unknown tlv" `Quick
      test_feedback_decode_rejects_unknown;
    Alcotest.test_case "endpoint empty msg" `Quick
      test_endpoint_rejects_empty_message;
    Alcotest.test_case "policy zero weights" `Quick
      test_policy_rejects_zero_weights;
    Alcotest.test_case "blob empty" `Quick test_blob_rejects_empty;
    Alcotest.test_case "mutate bad factor" `Quick test_mutate_rejects_bad_factor;
    Alcotest.test_case "cc aimd" `Quick test_cc_aimd_growth_and_halving;
    Alcotest.test_case "cc once per rtt" `Quick test_cc_once_per_rtt_decrease;
    Alcotest.test_case "cc dctcp alpha" `Quick test_cc_dctcp_proportional;
    Alcotest.test_case "cc rcp grant" `Quick test_cc_rcp_rate_grant;
    Alcotest.test_case "cc swift delay" `Quick test_cc_swift_delay_response;
    Alcotest.test_case "cc loss" `Quick test_cc_loss_collapses_window;
    Alcotest.test_case "cc congested recency" `Quick test_cc_congested_recency;
    QCheck_alcotest.to_alcotest prop_cc_window_bounded;
    QCheck_alcotest.to_alcotest prop_feedback_fold_matches_reference;
    Alcotest.test_case "pathlet isolation" `Quick
      test_pathlet_isolation_and_flight;
    Alcotest.test_case "pathlet per-path algos" `Quick
      test_pathlet_per_path_algorithms;
    Alcotest.test_case "endpoint 1-pkt msg" `Quick
      test_endpoint_single_packet_message;
    Alcotest.test_case "endpoint multi-pkt msg" `Quick
      test_endpoint_multi_packet_message;
    Alcotest.test_case "endpoint independence" `Quick
      test_endpoint_messages_independent;
    Alcotest.test_case "endpoint loss recovery" `Quick
      test_endpoint_recovers_from_loss;
    Alcotest.test_case "endpoint NDP trimming" `Quick
      test_endpoint_ndp_trimming_fast_recovery;
    Alcotest.test_case "endpoint priority" `Quick
      test_endpoint_priority_scheduling;
    Alcotest.test_case "endpoint rx bounds" `Quick test_endpoint_receiver_bounds;
    Alcotest.test_case "endpoint ECN loop" `Quick
      test_endpoint_feedback_loop_with_stamping;
    Alcotest.test_case "endpoint path learning" `Quick
      test_endpoint_tracks_current_path;
    Alcotest.test_case "endpoint current path order" `Quick
      test_endpoint_current_path_order;
    Alcotest.test_case "path-order flips allocate nothing" `Quick
      test_endpoint_path_flips_allocate_nothing;
    Alcotest.test_case "endpoint short msg passes blocked" `Quick
      test_endpoint_short_message_passes_blocked_one;
    Alcotest.test_case "endpoint send sequence pinned" `Quick
      test_endpoint_send_sequence_pinned;
    Alcotest.test_case "endpoint multi-lane sequence pinned" `Quick
      test_endpoint_multi_lane_sequence_pinned;
    Alcotest.test_case "endpoint rcp e2e" `Quick test_endpoint_rcp_rate_control;
    Alcotest.test_case "endpoint swift e2e" `Quick
      test_endpoint_swift_delay_control;
    Alcotest.test_case "endpoint exclusion on" `Quick
      test_endpoint_path_exclusion_in_headers;
    Alcotest.test_case "endpoint exclusion off" `Quick
      test_endpoint_exclusion_can_be_disabled;
    Alcotest.test_case "ack coalescing" `Quick
      test_endpoint_ack_coalescing_correctness;
    Alcotest.test_case "ack coalescing + loss" `Quick
      test_endpoint_ack_coalescing_with_loss;
    Alcotest.test_case "endpoint headers reach steady state" `Quick
      test_endpoint_headers_reach_steady_state;
    Alcotest.test_case "endpoint acks allocate nothing" `Quick
      test_endpoint_steady_state_allocates_nothing;
    Alcotest.test_case "endpoint messages recycle records" `Quick
      test_endpoint_messages_recycle_records;
    Alcotest.test_case "endpoint free lists hold finished records" `Quick
      test_endpoint_free_lists_hold_finished_records;
    Alcotest.test_case "host pool capped" `Quick test_host_pool_capped;
    Alcotest.test_case "completion send keeps the nack" `Quick
      test_endpoint_completion_send_keeps_nack;
    Alcotest.test_case "coalesced ack outlives its header" `Quick
      test_endpoint_coalesced_ack_outlives_header;
    Alcotest.test_case "blob under loss" `Quick test_blob_survives_loss;
    QCheck_alcotest.to_alcotest prop_exactly_once_delivery;
    Alcotest.test_case "blob roundtrip" `Quick test_blob_roundtrip;
    Alcotest.test_case "blob interleaved" `Quick test_blob_interleaved;
    Alcotest.test_case "policy shares" `Quick test_policy_shares;
    Alcotest.test_case "policy install" `Quick test_policy_install_fair_share;
    Alcotest.test_case "msg lb by size" `Quick test_msg_lb_balances_by_size;
    Alcotest.test_case "exclusion routing" `Quick test_exclusion_aware_routing;
    Alcotest.test_case "features paper rows" `Quick
      test_features_match_paper_rows;
    Alcotest.test_case "features quic" `Quick test_features_quic_unclear;
    Alcotest.test_case "features table" `Quick test_features_table_renders ]
