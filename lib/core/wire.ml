type path_ref = { path_id : int; path_tc : int }

type path_fb = { fb_path : path_ref; fb : Feedback.t }

type pkt_ref = { ref_msg : int; ref_pkt : int }

type t = {
  src_port : int;
  dst_port : int;
  msg_id : int;
  msg_pri : int;
  msg_tc : int;
  msg_len : int;
  msg_pkts : int;
  pkt_num : int;
  pkt_offset : int;
  pkt_len : int;
  is_ack : bool;
  cookie : int;
  cookie2 : int;
  path_exclude : path_ref list;
  mutable path_feedback : path_fb list;
  ack_path_feedback : path_fb list;
  sack : pkt_ref list;
  nack : pkt_ref list;
}

type Netsim.Packet.proto += Mtp of t

(* Fixed part:
   ports 2+2, msg_id 4, pri 1, tc 1, msg_len 4, msg_pkts 4, pkt_num 4,
   pkt_offset 4, pkt_len 2, flags 1, cookie 4, cookie2 4,
   five list counts 1 each = 42. *)
let fixed_size = 42

let path_ref_size = 3 (* path_id u16 + tc u8 *)

let pkt_ref_size = 8 (* msg u32 + pkt u32 *)

let path_fb_size { fb; _ } = path_ref_size + Feedback.encoded_size fb

let encoded_size t =
  fixed_size
  + (path_ref_size * List.length t.path_exclude)
  + List.fold_left (fun acc e -> acc + path_fb_size e) 0 t.path_feedback
  + List.fold_left (fun acc e -> acc + path_fb_size e) 0 t.ack_path_feedback
  + (pkt_ref_size * List.length t.sack)
  + (pkt_ref_size * List.length t.nack)

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let add_u16 buf v =
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_u32 buf v =
  add_u16 buf (v lsr 16);
  add_u16 buf v

let encode_path_ref buf { path_id; path_tc } =
  add_u16 buf path_id;
  add_u8 buf path_tc

let encode_path_fb buf { fb_path; fb } =
  encode_path_ref buf fb_path;
  Feedback.encode buf fb

let encode_pkt_ref buf { ref_msg; ref_pkt } =
  add_u32 buf ref_msg;
  add_u32 buf ref_pkt

(* Each list goes out behind a u8 count. *)
let add_count buf what l =
  let n = List.length l in
  if n > 0xff then
    invalid_arg
      (Printf.sprintf "Wire.encode: %d %s entries exceed the u8 count" n what);
  add_u8 buf n

let encode t =
  let buf = Buffer.create 64 in
  add_u16 buf t.src_port;
  add_u16 buf t.dst_port;
  add_u32 buf t.msg_id;
  add_u8 buf t.msg_pri;
  add_u8 buf t.msg_tc;
  add_u32 buf t.msg_len;
  add_u32 buf t.msg_pkts;
  add_u32 buf t.pkt_num;
  add_u32 buf t.pkt_offset;
  add_u16 buf t.pkt_len;
  add_u8 buf (if t.is_ack then 1 else 0);
  add_u32 buf t.cookie;
  add_u32 buf t.cookie2;
  add_count buf "path_exclude" t.path_exclude;
  List.iter (encode_path_ref buf) t.path_exclude;
  add_count buf "path_feedback" t.path_feedback;
  List.iter (encode_path_fb buf) t.path_feedback;
  add_count buf "ack_path_feedback" t.ack_path_feedback;
  List.iter (encode_path_fb buf) t.ack_path_feedback;
  add_count buf "sack" t.sack;
  List.iter (encode_pkt_ref buf) t.sack;
  add_count buf "nack" t.nack;
  List.iter (encode_pkt_ref buf) t.nack;
  Buffer.to_bytes buf

let get_u8 b pos = Char.code (Bytes.get b pos)

let get_u16 b pos = (get_u8 b pos lsl 8) lor get_u8 b (pos + 1)

let get_u32 b pos = (get_u16 b pos lsl 16) lor get_u16 b (pos + 2)

let decode b =
  let pos = ref 0 in
  let u8 () =
    let v = get_u8 b !pos in
    incr pos;
    v
  in
  let u16 () =
    let v = get_u16 b !pos in
    pos := !pos + 2;
    v
  in
  let u32 () =
    let v = get_u32 b !pos in
    pos := !pos + 4;
    v
  in
  let src_port = u16 () in
  let dst_port = u16 () in
  let msg_id = u32 () in
  let msg_pri = u8 () in
  let msg_tc = u8 () in
  let msg_len = u32 () in
  let msg_pkts = u32 () in
  let pkt_num = u32 () in
  let pkt_offset = u32 () in
  let pkt_len = u16 () in
  let is_ack = u8 () <> 0 in
  let cookie = u32 () in
  let cookie2 = u32 () in
  let path_ref () =
    let path_id = u16 () in
    let path_tc = u8 () in
    { path_id; path_tc }
  in
  let path_fb () =
    let fb_path = path_ref () in
    let fb, next = Feedback.decode b ~pos:!pos in
    pos := next;
    { fb_path; fb }
  in
  let pkt_ref () =
    let ref_msg = u32 () in
    let ref_pkt = u32 () in
    { ref_msg; ref_pkt }
  in
  let list_of f =
    let n = u8 () in
    List.init n (fun _ -> f ())
  in
  let path_exclude = list_of path_ref in
  let path_feedback = list_of path_fb in
  let ack_path_feedback = list_of path_fb in
  let sack = list_of pkt_ref in
  let nack = list_of pkt_ref in
  { src_port; dst_port; msg_id; msg_pri; msg_tc; msg_len; msg_pkts; pkt_num;
    pkt_offset; pkt_len; is_ack; cookie; cookie2; path_exclude;
    path_feedback; ack_path_feedback; sack; nack }

let data ~pri ~tc ~cookie ~cookie2 ~exclude ~src_port ~dst_port ~msg_id
    ~msg_len ~msg_pkts ~pkt_num ~pkt_offset ~pkt_len =
  { src_port; dst_port; msg_id; msg_pri = pri; msg_tc = tc; msg_len;
    msg_pkts; pkt_num; pkt_offset; pkt_len; is_ack = false; cookie; cookie2;
    path_exclude = exclude; path_feedback = []; ack_path_feedback = [];
    sack = []; nack = [] }

let ack ~sack ~nack ~tc ~src_port ~dst_port ~msg_id ~ack_path_feedback =
  { src_port; dst_port; msg_id; msg_pri = 0; msg_tc = tc; msg_len = 0;
    msg_pkts = 0; pkt_num = 0; pkt_offset = 0; pkt_len = 0; is_ack = true;
    cookie = 0; cookie2 = 0; path_exclude = []; path_feedback = [];
    ack_path_feedback; sack; nack }

let same_path a b = a.path_id = b.path_id && a.path_tc = b.path_tc

(* Whether an entry of [fbs] before its suffix [stop] names [p]. *)
let rec named_before p stop fbs =
  if fbs == stop then false
  else
    match fbs with
    | [] -> false
    | { fb_path; _ } :: rest -> same_path fb_path p || named_before p stop rest

let first_mention fbs cells =
  match cells with
  | [] -> false
  | { fb_path; _ } :: _ -> not (named_before fb_path cells fbs)

let add_feedback t fb_path fb =
  (* simlint: allow H101 — list bounded by paths-per-dst, keeps wire order *)
  t.path_feedback <- t.path_feedback @ [ { fb_path; fb } ]

let packet sim ~src ~dst ~entity t =
  let flow_hash =
    Netsim.Packet.flow_hash_of ~src ~dst ~src_port:t.src_port
      ~dst_port:t.dst_port
  in
  Netsim.Packet.make ~entity ~prio:t.msg_pri ~flow_hash ~payload:(Mtp t) sim
    ~src ~dst
    ~size:(encoded_size t + t.pkt_len)

(* simlint: allow H104 — codec round-trip check, never per packet *)
let equal a b = a = b
