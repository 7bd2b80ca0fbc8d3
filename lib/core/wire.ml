type path_ref = { path_id : int; path_tc : int }

type path_fb = { fb_path : path_ref; fb : Feedback.t }

type pkt_ref = { mutable ref_msg : int; mutable ref_pkt : int }

type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable msg_id : int;
  mutable msg_pri : int;
  mutable msg_tc : int;
  mutable msg_len : int;
  mutable msg_pkts : int;
  mutable pkt_num : int;
  mutable pkt_offset : int;
  mutable pkt_len : int;
  mutable is_ack : bool;
  mutable cookie : int;
  mutable cookie2 : int;
  mutable path_exclude : path_ref list;
  mutable path_feedback : path_fb list;
  mutable ack_path_feedback : path_fb list;
  mutable sack : pkt_ref list;
  mutable nack : pkt_ref list;
  sack_cell : pkt_ref list;
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

let encode_path_ref buf { path_id; path_tc } =
  Buffer.add_uint16_be buf path_id;
  Buffer.add_uint8 buf path_tc

let encode_path_fb buf { fb_path; fb } =
  encode_path_ref buf fb_path;
  Feedback.encode buf fb

let encode_pkt_ref buf { ref_msg; ref_pkt } =
  Buffer.add_int32_be buf (Int32.of_int ref_msg);
  Buffer.add_int32_be buf (Int32.of_int ref_pkt)

(* Each list goes out behind a u8 count. *)
let add_count buf what l =
  let n = List.length l in
  if n > 0xff then
    invalid_arg
      (Printf.sprintf "Wire.encode: %d %s entries exceed the u8 count" n what);
  Buffer.add_uint8 buf n

let encode t =
  let buf = Buffer.create 64 in
  Buffer.add_uint16_be buf t.src_port;
  Buffer.add_uint16_be buf t.dst_port;
  Buffer.add_int32_be buf (Int32.of_int t.msg_id);
  Buffer.add_uint8 buf t.msg_pri;
  Buffer.add_uint8 buf t.msg_tc;
  Buffer.add_int32_be buf (Int32.of_int t.msg_len);
  Buffer.add_int32_be buf (Int32.of_int t.msg_pkts);
  Buffer.add_int32_be buf (Int32.of_int t.pkt_num);
  Buffer.add_int32_be buf (Int32.of_int t.pkt_offset);
  Buffer.add_uint16_be buf t.pkt_len;
  Buffer.add_uint8 buf (if t.is_ack then 1 else 0);
  Buffer.add_int32_be buf (Int32.of_int t.cookie);
  Buffer.add_int32_be buf (Int32.of_int t.cookie2);
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

let new_cell () = [ { ref_msg = 0; ref_pkt = 0 } ]

let decode b =
  let pos = ref 0 in
  let u8 () =
    let v = Bytes.get_uint8 b !pos in
    incr pos;
    v
  in
  let u16 () =
    let v = Bytes.get_uint16_be b !pos in
    pos := !pos + 2;
    v
  in
  let u32 () =
    let v = Int32.to_int (Bytes.get_int32_be b !pos) land 0xFFFF_FFFF in
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
    path_feedback; ack_path_feedback; sack; nack; sack_cell = new_cell () }

let fill t ~is_ack ~pri ~tc ~cookie ~cookie2 ~exclude ~src_port ~dst_port
    ~msg_id ~msg_len ~msg_pkts ~pkt_num ~pkt_offset ~pkt_len ~sack ~nack
    ~ack_path_feedback =
  t.src_port <- src_port;
  t.dst_port <- dst_port;
  t.msg_id <- msg_id;
  t.msg_pri <- pri;
  t.msg_tc <- tc;
  t.msg_len <- msg_len;
  t.msg_pkts <- msg_pkts;
  t.pkt_num <- pkt_num;
  t.pkt_offset <- pkt_offset;
  t.pkt_len <- pkt_len;
  t.is_ack <- is_ack;
  t.cookie <- cookie;
  t.cookie2 <- cookie2;
  t.path_exclude <- exclude;
  t.path_feedback <- [];
  t.ack_path_feedback <- ack_path_feedback;
  t.sack <- sack;
  t.nack <- nack

let blank () =
  { src_port = 0; dst_port = 0; msg_id = 0; msg_pri = 0; msg_tc = 0;
    msg_len = 0; msg_pkts = 0; pkt_num = 0; pkt_offset = 0; pkt_len = 0;
    is_ack = false; cookie = 0; cookie2 = 0; path_exclude = [];
    path_feedback = []; ack_path_feedback = []; sack = []; nack = [];
    sack_cell = new_cell () }

let copy t = { t with sack_cell = new_cell () }

let refill_cell t ~msg_id ~pkt_num =
  match t.sack_cell with
  | r :: _ ->
    r.ref_msg <- msg_id;
    r.ref_pkt <- pkt_num;
    t.sack_cell
  | [] -> invalid_arg "Wire.refill_cell: a header without its cell"

let data ~pri ~tc ~cookie ~cookie2 ~exclude ~src_port ~dst_port ~msg_id
    ~msg_len ~msg_pkts ~pkt_num ~pkt_offset ~pkt_len =
  let t = blank () in
  fill t ~is_ack:false ~pri ~tc ~cookie ~cookie2 ~exclude ~src_port ~dst_port
    ~msg_id ~msg_len ~msg_pkts ~pkt_num ~pkt_offset ~pkt_len ~sack:[] ~nack:[]
    ~ack_path_feedback:[];
  t

let ack ~sack ~nack ~tc ~src_port ~dst_port ~msg_id ~ack_path_feedback =
  let t = blank () in
  fill t ~is_ack:true ~pri:0 ~tc ~cookie:0 ~cookie2:0 ~exclude:[] ~src_port
    ~dst_port ~msg_id ~msg_len:0 ~msg_pkts:0 ~pkt_num:0 ~pkt_offset:0
    ~pkt_len:0 ~sack ~nack ~ack_path_feedback;
  t

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

let header = function
  | Mtp t -> t
  | _ -> invalid_arg "Wire.header: not an MTP payload"

let packet pool ~src ~dst ~entity payload =
  let t = header payload in
  let flow_hash =
    Netsim.Packet.flow_hash_of ~src ~dst ~src_port:t.src_port
      ~dst_port:t.dst_port
  in
  Netsim.Packet.take pool ~entity ~prio:t.msg_pri ~flow_hash ~payload ~src ~dst
    ~size:(encoded_size t + t.pkt_len)

(* The cell is the box's, not the header's content. *)
let equal a b =
  (* simlint: allow H104 — codec round-trip check, never per packet *)
  { a with sack_cell = b.sack_cell } = b
