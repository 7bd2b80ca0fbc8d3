type t = Ecn of bool | Queue of int | Rate of int | Delay of int | Trimmed

let type_code = function
  | Ecn _ -> 1
  | Queue _ -> 2
  | Rate _ -> 3
  | Delay _ -> 4
  | Trimmed -> 5

let encoded_size = function
  | Ecn _ -> 3
  | Queue _ -> 4
  | Rate _ -> 6
  | Delay _ -> 6
  | Trimmed -> 2

let encode buf t =
  Buffer.add_uint8 buf (type_code t);
  match t with
  | Ecn b ->
    Buffer.add_uint8 buf 1;
    Buffer.add_uint8 buf (if b then 1 else 0)
  | Queue d ->
    Buffer.add_uint8 buf 2;
    Buffer.add_uint16_be buf d
  | Rate mbps ->
    Buffer.add_uint8 buf 4;
    Buffer.add_int32_be buf (Int32.of_int mbps)
  | Delay ns ->
    Buffer.add_uint8 buf 4;
    Buffer.add_int32_be buf (Int32.of_int ns)
  | Trimmed -> Buffer.add_uint8 buf 0

let decode b ~pos =
  let code = Bytes.get_uint8 b pos in
  let len = Bytes.get_uint8 b (pos + 1) in
  let body = pos + 2 in
  let value =
    match code with
    | 1 -> Ecn (Bytes.get_uint8 b body <> 0)
    | 2 -> Queue (Bytes.get_uint16_be b body)
    | 3 -> Rate (Int32.to_int (Bytes.get_int32_be b body) land 0xFFFF_FFFF)
    | 4 -> Delay (Int32.to_int (Bytes.get_int32_be b body) land 0xFFFF_FFFF)
    | 5 -> Trimmed
    | n -> failwith (Printf.sprintf "Feedback.decode: unknown type %d" n)
  in
  (value, body + len)

let is_congested = function
  | Ecn b -> b
  | Queue d -> d > 16
  | Rate mbps -> mbps = 0
  | Delay ns -> ns > 50_000
  | Trimmed -> true

let equal a b = a = b
