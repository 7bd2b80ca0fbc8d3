type t = { pairs : (int * float) list } (* normalized, in class order *)

let normalize pairs =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
  if total <= 0.0 then invalid_arg "Policy: weights must be positive";
  { pairs = List.map (fun (e, w) -> (e, w /. total)) pairs }

let equal_shares ~entities =
  normalize (List.map (fun e -> (e, 1.0)) entities)

let weighted pairs = normalize pairs

let share t entity =
  match List.assoc_opt entity t.pairs with Some s -> s | None -> 0.0

let class_of t entity =
  let rec index i = function
    | [] -> 0
    | (e, _) :: rest -> if e = entity then i else index (i + 1) rest
  in
  index 0 t.pairs

let shares_array t = Array.of_list (List.map snd t.pairs)

let classify t (pkt : Netsim.Packet.t) = class_of t pkt.Netsim.Packet.entity

let install_fair_share t link ~cap_pkts ~mark_threshold =
  Netsim.Link.set_qdisc link
    (Netsim.Qdisc.fair_mark ~classify:(classify t) ~shares:(shares_array t)
       ~cap_pkts ~mark_threshold ())
