type t = { mutable rewritten : int }

let compressed_len ~orig ~factor =
  if orig <= 0 then 0
  else max 1 (int_of_float (Float.round (float_of_int orig *. factor)))

let compressed_msg_len ~msg_len ~msg_pkts ~mtu_payload ~factor =
  if msg_pkts <= 1 then compressed_len ~orig:msg_len ~factor
  else
    let last = msg_len - (mtu_payload * (msg_pkts - 1)) in
    ((msg_pkts - 1) * compressed_len ~orig:mtu_payload ~factor)
    + compressed_len ~orig:last ~factor

let install sw ~dst_port ~factor () =
  if factor <= 0.0 || factor > 1.0 then invalid_arg "Mutate.install: factor";
  let mtu_payload = 1440 in
  let t = { rewritten = 0 } in
  Netsim.Switch.add_ingress_hook sw (fun pkt ->
      (match pkt.Netsim.Packet.payload with
      | Mtp.Wire.Mtp h
        when (not h.Mtp.Wire.is_ack)
             && h.Mtp.Wire.dst_port = dst_port
             && h.Mtp.Wire.pkt_len > 0 ->
        let new_len = compressed_len ~orig:h.Mtp.Wire.pkt_len ~factor in
        let new_msg_len =
          compressed_msg_len ~msg_len:h.Mtp.Wire.msg_len
            ~msg_pkts:h.Mtp.Wire.msg_pkts ~mtu_payload ~factor
        in
        let full = compressed_len ~orig:mtu_payload ~factor in
        let h' = Mtp.Wire.copy h in
        h'.Mtp.Wire.pkt_len <- new_len;
        h'.Mtp.Wire.msg_len <- new_msg_len;
        h'.Mtp.Wire.pkt_offset <- h.Mtp.Wire.pkt_num * full;
        t.rewritten <- t.rewritten + 1;
        pkt.Netsim.Packet.payload <- Mtp.Wire.Mtp h';
        pkt.Netsim.Packet.size <- Mtp.Wire.encoded_size h' + new_len
      | _ -> ());
      Netsim.Switch.Continue);
  t

let packets_rewritten t = t.rewritten
