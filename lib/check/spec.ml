(* Compact, replayable fuzz-case specs.

   A spec fully determines a scenario: topology shape, qdisc, one
   transport, a finite message workload, and a fault plan — all
   bounded so a case runs in milliseconds.  [to_string]/[of_string]
   round-trip through a small line-oriented text format so failing
   cases can be written to test/corpus/ and replayed by path. *)

type topo =
  | Pair
  | Star of int
  | Dumbbell of int
  | Two_path
  | Leaf_spine of { leaves : int; spines : int; hosts : int }
  | Fat_tree of { k : int }

type qdisc_kind =
  | Q_fifo of int
  | Q_ecn of { cap : int; thresh : int }
  | Q_red of { cap : int; min_th : int; max_th : int }
  | Q_trim of int

type transport = T_tcp | T_dctcp | T_udp | T_mtp

type flow = { f_src : int; f_dst : int; f_size : int; f_start_us : int }

type fault =
  | F_down_up of { link : int; down_us : int; up_us : int }
  | F_corrupt of { link : int; rate_pct : int }
  | F_gilbert of { link : int }

type t = {
  seed : int;
  topo : topo;
  qdisc : qdisc_kind;
  transport : transport;
  rate_mbps : int;
  delay_us : int;
  duration_us : int;
  flows : flow list;
  faults : fault list;
}

(* --------------------------- serialization ------------------------- *)

let topo_to_string = function
  | Pair -> "pair"
  | Star n -> Printf.sprintf "star %d" n
  | Dumbbell n -> Printf.sprintf "dumbbell %d" n
  | Two_path -> "two_path"
  | Leaf_spine { leaves; spines; hosts } ->
    Printf.sprintf "leaf_spine %d %d %d" leaves spines hosts
  | Fat_tree { k } -> Printf.sprintf "fat_tree %d" k

let qdisc_to_string = function
  | Q_fifo cap -> Printf.sprintf "fifo %d" cap
  | Q_ecn { cap; thresh } -> Printf.sprintf "ecn %d %d" cap thresh
  | Q_red { cap; min_th; max_th } ->
    Printf.sprintf "red %d %d %d" cap min_th max_th
  | Q_trim cap -> Printf.sprintf "trim %d" cap

let transport_to_string = function
  | T_tcp -> "tcp"
  | T_dctcp -> "dctcp"
  | T_udp -> "udp"
  | T_mtp -> "mtp"

let fault_to_string = function
  | F_down_up { link; down_us; up_us } ->
    Printf.sprintf "fault down %d %d %d" link down_us up_us
  | F_corrupt { link; rate_pct } ->
    Printf.sprintf "fault corrupt %d %d" link rate_pct
  | F_gilbert { link } -> Printf.sprintf "fault gilbert %d" link

let to_string t =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "mtpcase v1";
  line "seed %d" t.seed;
  line "topo %s" (topo_to_string t.topo);
  line "qdisc %s" (qdisc_to_string t.qdisc);
  line "transport %s" (transport_to_string t.transport);
  line "rate_mbps %d" t.rate_mbps;
  line "delay_us %d" t.delay_us;
  line "duration_us %d" t.duration_us;
  List.iter
    (fun f -> line "flow %d %d %d %d" f.f_src f.f_dst f.f_size f.f_start_us)
    t.flows;
  List.iter (fun f -> line "%s" (fault_to_string f)) t.faults;
  Buffer.contents buf

let parse_error fmt = Printf.ksprintf (fun s -> Error s) fmt

let int_field what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> parse_error "%s: not an integer: %S" what s

let ( let* ) = Result.bind

(* Bounds are what [Scenario.build] can run, not the generator's
   narrower ranges: a rate divides, and times, sizes and indices are
   scheduled or reduced mod a device count. *)
let at_least lo what s =
  let* n = int_field what s in
  if n < lo then parse_error "%s must be >= %d" what lo else Ok n

let positive = at_least 1
let non_negative = at_least 0

let parse_topo = function
  | [ "pair" ] -> Ok Pair
  | [ "star"; n ] ->
    let* n = positive "star" n in
    Ok (Star n)
  | [ "dumbbell"; n ] ->
    let* n = positive "dumbbell" n in
    Ok (Dumbbell n)
  | [ "two_path" ] -> Ok Two_path
  | [ "leaf_spine"; l; s; h ] ->
    let* leaves = positive "leaf_spine leaves" l in
    let* spines = positive "leaf_spine spines" s in
    let* hosts = positive "leaf_spine hosts" h in
    Ok (Leaf_spine { leaves; spines; hosts })
  | [ "fat_tree"; k ] ->
    let* k = int_field "fat_tree k" k in
    if k < 2 || k mod 2 <> 0 then parse_error "fat_tree k must be even >= 2"
    else Ok (Fat_tree { k })
  | ws -> parse_error "bad topo: %S" (String.concat " " ws)

let parse_qdisc = function
  | [ "fifo"; cap ] ->
    let* cap = positive "fifo cap" cap in
    Ok (Q_fifo cap)
  | [ "ecn"; cap; thresh ] ->
    let* cap = positive "ecn cap" cap in
    let* thresh = non_negative "ecn thresh" thresh in
    Ok (Q_ecn { cap; thresh })
  | [ "red"; cap; mn; mx ] ->
    let* cap = positive "red cap" cap in
    let* min_th = non_negative "red min_th" mn in
    let* max_th = int_field "red max_th" mx in
    (* [Scenario] clamps max_th into (min_th, cap]. *)
    if min_th >= cap then parse_error "red min_th must be below cap"
    else Ok (Q_red { cap; min_th; max_th })
  | [ "trim"; cap ] ->
    let* cap = positive "trim cap" cap in
    Ok (Q_trim cap)
  | ws -> parse_error "bad qdisc: %S" (String.concat " " ws)

let parse_transport = function
  | "tcp" -> Ok T_tcp
  | "dctcp" -> Ok T_dctcp
  | "udp" -> Ok T_udp
  | "mtp" -> Ok T_mtp
  | s -> parse_error "bad transport: %S" s

let parse_fault = function
  | [ "down"; l; d; u ] ->
    let* link = non_negative "fault down link" l in
    let* down_us = non_negative "fault down at" d in
    let* up_us = non_negative "fault down up" u in
    Ok (F_down_up { link; down_us; up_us })
  | [ "corrupt"; l; r ] ->
    let* link = non_negative "fault corrupt link" l in
    let* rate_pct = non_negative "fault corrupt rate" r in
    Ok (F_corrupt { link; rate_pct })
  | [ "gilbert"; l ] ->
    let* link = non_negative "fault gilbert link" l in
    Ok (F_gilbert { link })
  | ws -> parse_error "bad fault: %S" (String.concat " " ws)

type partial = {
  mutable p_seed : int option;
  mutable p_topo : topo option;
  mutable p_qdisc : qdisc_kind option;
  mutable p_transport : transport option;
  mutable p_rate : int option;
  mutable p_delay : int option;
  mutable p_duration : int option;
  mutable p_flows : flow list; (* reverse *)
  mutable p_faults : fault list; (* reverse *)
}

let of_string s =
  let ls =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match ls with
  | [] -> Error "empty spec"
  | header :: rest ->
    if header <> "mtpcase v1" then
      parse_error "bad header: %S (want \"mtpcase v1\")" header
    else begin
      let p =
        { p_seed = None; p_topo = None; p_qdisc = None; p_transport = None;
          p_rate = None; p_delay = None; p_duration = None; p_flows = [];
          p_faults = [] }
      in
      let parse_line l =
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | "seed" :: [ v ] ->
          let* v = int_field "seed" v in
          p.p_seed <- Some v;
          Ok ()
        | "topo" :: ws ->
          let* v = parse_topo ws in
          p.p_topo <- Some v;
          Ok ()
        | "qdisc" :: ws ->
          let* v = parse_qdisc ws in
          p.p_qdisc <- Some v;
          Ok ()
        | "transport" :: [ v ] ->
          let* v = parse_transport v in
          p.p_transport <- Some v;
          Ok ()
        | "rate_mbps" :: [ v ] ->
          let* v = positive "rate_mbps" v in
          p.p_rate <- Some v;
          Ok ()
        | "delay_us" :: [ v ] ->
          let* v = non_negative "delay_us" v in
          p.p_delay <- Some v;
          Ok ()
        | "duration_us" :: [ v ] ->
          let* v = non_negative "duration_us" v in
          p.p_duration <- Some v;
          Ok ()
        | "flow" :: [ a; b; c; d ] ->
          let* f_src = non_negative "flow src" a in
          let* f_dst = non_negative "flow dst" b in
          let* f_size = positive "flow size" c in
          let* f_start_us = non_negative "flow start" d in
          p.p_flows <- { f_src; f_dst; f_size; f_start_us } :: p.p_flows;
          Ok ()
        | "fault" :: ws ->
          let* v = parse_fault ws in
          p.p_faults <- v :: p.p_faults;
          Ok ()
        | _ -> parse_error "unrecognized line: %S" l
      in
      let rec go = function
        | [] -> Ok ()
        | l :: rest ->
          let* () = parse_line l in
          go rest
      in
      let* () = go rest in
      let req what = function
        | Some v -> Ok v
        | None -> parse_error "missing %s line" what
      in
      let* seed = req "seed" p.p_seed in
      let* topo = req "topo" p.p_topo in
      let* qdisc = req "qdisc" p.p_qdisc in
      let* transport = req "transport" p.p_transport in
      let* rate_mbps = req "rate_mbps" p.p_rate in
      let* delay_us = req "delay_us" p.p_delay in
      let* duration_us = req "duration_us" p.p_duration in
      if p.p_flows = [] then Error "spec has no flows"
      else
        Ok
          { seed; topo; qdisc; transport; rate_mbps; delay_us; duration_us;
            flows = List.rev p.p_flows; faults = List.rev p.p_faults }
    end

let save ~path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s

(* ---------------------------- generation --------------------------- *)

(* Bounds chosen so one case simulates a few milliseconds of network
   time and runs in tens of milliseconds of wall time: small fan-outs,
   message sizes log-uniform in [512 B, ~512 KB], at most a handful of
   faults. *)
let generate rng =
  let module R = Engine.Rng in
  let seed = R.int rng 1_000_000 in
  let topo =
    match R.int rng 9 with
    | 0 | 1 -> Pair
    | 2 | 3 -> Star (2 + R.int rng 6)
    | 4 | 5 -> Dumbbell (1 + R.int rng 4)
    | 6 -> Two_path
    | 7 -> Fat_tree { k = 4 + (2 * R.int rng 2) }
    | _ ->
      Leaf_spine
        { leaves = 2 + R.int rng 2;
          spines = 1 + R.int rng 2;
          hosts = 1 + R.int rng 2 }
  in
  let qdisc =
    match R.int rng 4 with
    | 0 -> Q_fifo (16 + R.int rng 240)
    | 1 ->
      let cap = 32 + R.int rng 224 in
      Q_ecn { cap; thresh = 4 + R.int rng (cap / 2) }
    | 2 ->
      let cap = 32 + R.int rng 224 in
      let min_th = 4 + R.int rng (cap / 4) in
      Q_red { cap; min_th; max_th = (min_th * 2) + R.int rng (cap / 2) }
    | _ -> Q_trim (16 + R.int rng 112)
  in
  let transport =
    match R.int rng 4 with
    | 0 -> T_tcp
    | 1 -> T_dctcp
    | 2 -> T_udp
    | _ -> T_mtp
  in
  let rate_mbps = [| 100; 1_000; 10_000 |].(R.int rng 3) in
  let delay_us = 1 + R.int rng 15 in
  let duration_us = 600 + R.int rng 2_400 in
  let n_flows = 1 + R.int rng 10 in
  let flows =
    List.init n_flows (fun _ ->
        let bits = 9 + R.int rng 10 in
        { f_src = R.int rng 64;
          f_dst = R.int rng 64;
          f_size = (1 lsl bits) + R.int rng (1 lsl bits);
          f_start_us = R.int rng (duration_us / 2) })
  in
  let n_faults = match R.int rng 5 with 0 | 1 | 2 -> 0 | 3 -> 1 | _ -> 2 in
  let faults =
    List.init n_faults (fun _ ->
        let link = R.int rng 64 in
        match R.int rng 3 with
        | 0 ->
          let down_us = duration_us / 10 * (1 + R.int rng 5) in
          F_down_up { link; down_us; up_us = down_us + (duration_us / 5) }
        | 1 -> F_corrupt { link; rate_pct = 1 + R.int rng 30 }
        | _ -> F_gilbert { link })
  in
  { seed; topo; qdisc; transport; rate_mbps; delay_us; duration_us; flows;
    faults }
