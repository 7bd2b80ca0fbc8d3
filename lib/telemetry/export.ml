(* Machine-readable exports.  Everything is emitted in a deterministic
   order: events in ring order (simulation time), metric rows sorted
   by name, run marks oldest first — two same-seed runs produce
   byte-identical files. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Floats as JSON: no NaN/inf (both illegal), no OCaml-isms like "1."
   — gauges can legitimately produce non-finite values (a rate over a
   zero interval), so they are mapped to null. *)
let json_float f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

(* ------------------------------- events ---------------------------- *)

let event_json (r : Events.record_) =
  let buf = Buffer.create 160 in
  Buffer.add_string buf
    (Printf.sprintf "{\"t_us\":%.3f,\"kind\":\"%s\",\"point\":\"%s\""
       (Engine.Time.to_float_us r.Events.at)
       (Events.kind_name r.Events.kind)
       (json_escape r.Events.point));
  if r.Events.uid >= 0 then
    Buffer.add_string buf (Printf.sprintf ",\"uid\":%d" r.Events.uid);
  if r.Events.src >= 0 then
    Buffer.add_string buf (Printf.sprintf ",\"src\":%d" r.Events.src);
  if r.Events.dst >= 0 then
    Buffer.add_string buf (Printf.sprintf ",\"dst\":%d" r.Events.dst);
  if r.Events.size > 0 then
    Buffer.add_string buf (Printf.sprintf ",\"size\":%d" r.Events.size);
  let a_name, b_name = Events.ab_names r.Events.kind in
  Buffer.add_string buf
    (Printf.sprintf ",\"%s\":%d,\"%s\":%d}" a_name r.Events.a b_name
       r.Events.b);
  Buffer.contents buf

let events_jsonl oc ev =
  Events.iter ev (fun r ->
      output_string oc (event_json r);
      output_char oc '\n');
  (* Ring wrap-around is data loss; say so in-band rather than let a
     truncated trace read as a complete one. *)
  if Events.dropped ev > 0 then
    Printf.fprintf oc "{\"kind\":\"truncated\",\"dropped\":%d,\"retained\":%d}\n"
      (Events.dropped ev) (Events.retained ev)

let events_csv oc ev =
  output_string oc "t_us,kind,point,uid,src,dst,size,a,b\n";
  Events.iter ev (fun r ->
      Printf.fprintf oc "%.3f,%s,%s,%d,%d,%d,%d,%d,%d\n"
        (Engine.Time.to_float_us r.Events.at)
        (Events.kind_name r.Events.kind)
        r.Events.point r.Events.uid r.Events.src r.Events.dst r.Events.size
        r.Events.a r.Events.b)

(* ------------------------------- metrics --------------------------- *)

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let metric_rows_csv oc ~run rows =
  List.iter
    (fun { Registry.row_name; row_kind; row_fields } ->
      List.iter
        (fun (field, v) ->
          Printf.fprintf oc "%s,%s,%s,%s,%.6g\n" (csv_cell run)
            (csv_cell row_name) row_kind (csv_cell field) v)
        row_fields)
    rows

let metrics_csv oc ~runs reg =
  output_string oc "run,metric,kind,field,value\n";
  List.iter (fun (label, rows) -> metric_rows_csv oc ~run:label rows) runs;
  metric_rows_csv oc ~run:"end" (Registry.snapshot reg)

let metric_rows_jsonl oc ~run rows =
  List.iter
    (fun { Registry.row_name; row_kind; row_fields } ->
      let fields =
        List.map
          (fun (field, v) ->
            Printf.sprintf "\"%s\":%s" (json_escape field) (json_float v))
          row_fields
      in
      Printf.fprintf oc "{\"run\":\"%s\",\"metric\":\"%s\",\"kind\":\"%s\",%s}\n"
        (json_escape run) (json_escape row_name) row_kind
        (String.concat "," fields))
    rows

let metrics_jsonl oc ~runs reg =
  List.iter (fun (label, rows) -> metric_rows_jsonl oc ~run:label rows) runs;
  metric_rows_jsonl oc ~run:"end" (Registry.snapshot reg)

(* ------------------------------ to files --------------------------- *)

let with_file path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_trace ?(format = `Jsonl) path =
  with_file path (fun oc ->
      match format with
      | `Jsonl -> events_jsonl oc (Ctx.events ())
      | `Csv -> events_csv oc (Ctx.events ()))

let write_metrics ?(format = `Csv) path =
  let runs = Ctx.runs () in
  with_file path (fun oc ->
      match format with
      | `Csv -> metrics_csv oc ~runs (Ctx.metrics ())
      | `Jsonl -> metrics_jsonl oc ~runs (Ctx.metrics ()))
