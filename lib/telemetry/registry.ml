type gauge = { mutable read : unit -> float }

type hist = { hist : Stats.Histogram.t }

type metric = Gauge of gauge | Histogram of hist

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let metric_count t = Hashtbl.length t.tbl

(* Gauges are sampled only at snapshot time, so registration is the
   whole cost.  Re-registering replaces the closure: when consecutive
   simulations reuse component names, the latest run's state is the
   one a final snapshot should read. *)
let set_gauge t name read =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g.read <- read
  | Some _ -> invalid_arg ("Registry.set_gauge: " ^ name ^ " is not a gauge")
  | None -> Hashtbl.add t.tbl name (Gauge { read })

let histogram t ?(scale = `Linear) ~lo ~hi ~buckets name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h.hist
  | Some _ ->
    invalid_arg ("Registry.histogram: " ^ name ^ " is not a histogram")
  | None ->
    let hist =
      match scale with
      | `Linear -> Stats.Histogram.create_linear ~lo ~hi ~buckets
      | `Log -> Stats.Histogram.create_log ~lo ~hi ~buckets
    in
    Hashtbl.add t.tbl name (Histogram { hist });
    hist

type row = {
  row_name : string;
  row_kind : string; (* "gauge" | "histogram" *)
  row_fields : (string * float) list;
}

let float_field f =
  (* %.17g is lossless for doubles but noisy; %g is stable and enough
     for bucket bounds, which are construction-time constants. *)
  Printf.sprintf "le_%g" f

let hist_fields h =
  let open Stats.Histogram in
  let cum = ref (underflow h) in
  let buckets =
    List.init (bucket_count h) (fun i ->
        cum := !cum + bucket_value h i;
        let _, hi = bucket_range h i in
        (float_field hi, float_of_int !cum))
  in
  [ ("count", float_of_int (count h));
    ("underflow", float_of_int (underflow h));
    ("overflow", float_of_int (overflow h));
    ("invalid", float_of_int (invalid h)) ]
  @ buckets

(* Sorted by name so exports are deterministic regardless of hash
   order. *)
let snapshot t =
  (* simlint: allow D001 — rows are sorted by name below for export *)
  Hashtbl.fold
    (fun name metric acc ->
      let row =
        match metric with
        | Gauge g ->
          { row_name = name; row_kind = "gauge";
            row_fields = [ ("value", g.read ()) ] }
        | Histogram h ->
          { row_name = name; row_kind = "histogram";
            row_fields = hist_fields h.hist }
      in
      row :: acc)
    t.tbl []
  |> List.sort (fun a b -> compare a.row_name b.row_name)
