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

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let add_u16 buf v =
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_u32 buf v =
  add_u16 buf (v lsr 16);
  add_u16 buf v

let encode buf t =
  add_u8 buf (type_code t);
  match t with
  | Ecn b ->
    add_u8 buf 1;
    add_u8 buf (if b then 1 else 0)
  | Queue d ->
    add_u8 buf 2;
    add_u16 buf d
  | Rate mbps ->
    add_u8 buf 4;
    add_u32 buf mbps
  | Delay ns ->
    add_u8 buf 4;
    add_u32 buf ns
  | Trimmed -> add_u8 buf 0

let get_u8 b pos = Char.code (Bytes.get b pos)

let get_u16 b pos = (get_u8 b pos lsl 8) lor get_u8 b (pos + 1)

let get_u32 b pos = (get_u16 b pos lsl 16) lor get_u16 b (pos + 2)

let decode b ~pos =
  let code = get_u8 b pos in
  let len = get_u8 b (pos + 1) in
  let body = pos + 2 in
  let value =
    match code with
    | 1 -> Ecn (get_u8 b body <> 0)
    | 2 -> Queue (get_u16 b body)
    | 3 -> Rate (get_u32 b body)
    | 4 -> Delay (get_u32 b body)
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
