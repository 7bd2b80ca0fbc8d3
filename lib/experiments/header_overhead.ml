type row = {
  scenario : string;
  header_bytes : int;
  overhead_1pkt_pct : float;
}

let base_header ~pkt_len =
  Mtp.Wire.data ~pri:0 ~tc:0 ~cookie:0 ~cookie2:0 ~exclude:[] ~src_port:1
    ~dst_port:2 ~msg_id:3 ~msg_len:1_000_000 ~msg_pkts:695 ~pkt_num:10
    ~pkt_offset:14_400 ~pkt_len

(* A fresh header stamped by [n] hops: stamping writes the header in
   place, so each use builds its own. *)
let with_feedback ~pkt_len n =
  let h = base_header ~pkt_len in
  for i = n downto 1 do
    Mtp.Wire.add_feedback h
      { Mtp.Wire.path_id = i; path_tc = 0 }
      (Mtp.Feedback.Ecn true)
  done;
  h

let mk scenario h =
  let header_bytes = Mtp.Wire.encoded_size h in
  { scenario; header_bytes;
    overhead_1pkt_pct =
      100.0 *. float_of_int header_bytes
      /. float_of_int (header_bytes + 1440) }

let rows () =
  let tcp =
    { scenario = "TCP/IP header (reference)"; header_bytes = 40;
      overhead_1pkt_pct = 100.0 *. 40.0 /. 1480.0 }
  in
  [ tcp;
    mk "MTP data, no feedback" (base_header ~pkt_len:1440);
    mk "MTP data, 1 hop stamping" (with_feedback ~pkt_len:1440 1);
    mk "MTP data, 4 hops stamping" (with_feedback ~pkt_len:1440 4);
    mk "MTP data, 8 hops stamping" (with_feedback ~pkt_len:1440 8);
    mk "MTP ack, 1 sack + 1 echoed hop"
      (Mtp.Wire.ack ~sack:[ { Mtp.Wire.ref_msg = 3; ref_pkt = 10 } ]
         ~nack:[] ~tc:0 ~src_port:2 ~dst_port:1 ~msg_id:3
         ~ack_path_feedback:
           [ { Mtp.Wire.fb_path = { Mtp.Wire.path_id = 1; path_tc = 0 };
               fb = Mtp.Feedback.Ecn true } ]) ]

let goodput_efficiency ~msg_bytes ~hops =
  let mtu = 1440 in
  let npkts = (msg_bytes + mtu - 1) / mtu in
  let data_wire = ref 0 in
  for pkt = 0 to npkts - 1 do
    let payload = if pkt < npkts - 1 then mtu else msg_bytes - (mtu * (npkts - 1)) in
    let h = with_feedback ~pkt_len:payload hops in
    data_wire := !data_wire + Mtp.Wire.encoded_size h + payload
  done;
  let ack =
    Mtp.Wire.ack ~sack:[ { Mtp.Wire.ref_msg = 3; ref_pkt = 0 } ] ~nack:[]
      ~tc:0 ~src_port:2 ~dst_port:1 ~msg_id:3
      ~ack_path_feedback:
        (List.init hops (fun i ->
             { Mtp.Wire.fb_path = { Mtp.Wire.path_id = i; path_tc = 0 };
               fb = Mtp.Feedback.Ecn true }))
  in
  let ack_wire = npkts * Mtp.Wire.encoded_size ack in
  float_of_int msg_bytes /. float_of_int (!data_wire + ack_wire)

let result () =
  let table =
    Stats.Table.create
      ~columns:[ "packet"; "header bytes"; "overhead on a full packet" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_rowf table "%s | %d | %.1f%%" r.scenario r.header_bytes
        r.overhead_1pkt_pct)
    (rows ());
  let eff =
    Stats.Table.create
      ~columns:
        [ "message size"; "wire efficiency, 1 hop"; "wire efficiency, 8 hops" ]
  in
  List.iter
    (fun msg_bytes ->
      Stats.Table.add_rowf eff "%dKB | %.1f%% | %.1f%%" (msg_bytes / 1000)
        (100.0 *. goodput_efficiency ~msg_bytes ~hops:1)
        (100.0 *. goodput_efficiency ~msg_bytes ~hops:8))
    [ 1_000; 16_000; 256_000; 4_000_000 ];
  Exp_common.make
    ~title:"Discussion: MTP header overheads (real wire encoding)" ~table
    ~notes:
      [ "\n" ^ Stats.Table.to_string eff;
        "feedback aggregation/selective return (paper section 4) would cut \
         the per-hop 6-byte TLV cost" ]
    ()
