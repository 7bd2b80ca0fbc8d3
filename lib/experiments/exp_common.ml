type series = { label : string; data : Stats.Timeseries.t }

type result = {
  title : string;
  series : series list;
  table : Stats.Table.t option;
  notes : string list;
}

let make ~title ?(series = []) ?table ?(notes = []) () =
  { title; series; table; notes }

let print ?(dump_series = false) fmt r =
  Format.fprintf fmt "== %s ==@." r.title;
  List.iter
    (fun { label; data } ->
      Format.fprintf fmt "  series %-28s points=%-5d mean=%10.4f max=%10.4f@."
        label
        (Stats.Timeseries.length data)
        (Stats.Timeseries.mean data)
        (Stats.Timeseries.max_value data))
    r.series;
  (match r.table with
  | Some t -> Format.fprintf fmt "%a" Stats.Table.pp t
  | None -> ());
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) r.notes;
  (* With telemetry on, each printed result closes a "run": the
     registry snapshot taken here is what the metrics export attributes
     to this exhibit. *)
  Telemetry.Ctx.mark_run r.title;
  if dump_series then
    List.iter
      (fun { label; data } ->
        Format.fprintf fmt "-- %s (time_us value)@." label;
        Stats.Timeseries.pp_rows fmt data)
      r.series

let mean_between data ~lo ~hi =
  Stats.Timeseries.mean (Stats.Timeseries.between data ~lo ~hi)

(* Heterogeneous job grids: the existential packs each job's work
   (runs on a worker domain) with its commit (runs on the main domain,
   in submission order, after the whole pool drains).  Workers return
   the commit closure partially applied to the work's value, so the
   pool itself only ever sees one result type and the commit side
   never races: everything observable happens on main, in list order,
   whatever [jobs] is. *)
type job = Job : (unit -> 'a) * ('a -> unit) -> job

let job work ~commit = Job (work, commit)

let barrier commit = Job ((fun () -> ()), commit)

let run_jobs ?(jobs = 1) (js : job list) =
  Runner.Pool.map ~jobs
    (fun (Job (work, commit)) ->
      let v = work () in
      fun () -> commit v)
    js
  |> List.iter (fun k -> k ())

let collect ?jobs grid =
  let out = ref None in
  run_jobs ?jobs (grid (fun v -> out := Some v));
  match !out with
  | Some v -> v
  | None -> invalid_arg "Exp_common.collect: the grid emitted nothing"

(* [points x reps] cell jobs filling [cells], then a barrier that
   reduces each point's replications with [reduce] and emits the
   reduced values in point order. *)
let grid ?(reps = 1) ~points ~cell ~reduce ~emit () =
  if reps < 1 then invalid_arg "Exp_common.grid: reps must be >= 1";
  let n = List.length points in
  let cells = Array.make (max 1 (n * reps)) None in
  List.concat
    (List.mapi
       (fun i p ->
         List.init reps (fun r ->
             job
               (fun () -> cell i r p)
               ~commit:(fun o -> cells.((i * reps) + r) <- Some o)))
       points)
  @ [ barrier (fun () ->
          emit
            (List.mapi
               (fun i p ->
                 reduce p
                   (List.init reps (fun r ->
                        Option.get cells.((i * reps) + r))))
               points)) ]

let slugify s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    s
  |> fun s ->
  (* Collapse runs of dashes and trim. *)
  let buf = Buffer.create (String.length s) in
  let last_dash = ref true in
  String.iter
    (fun c ->
      if c = '-' then begin
        if not !last_dash then Buffer.add_char buf '-';
        last_dash := true
      end
      else begin
        Buffer.add_char buf c;
        last_dash := false
      end)
    s;
  let out = Buffer.contents buf in
  if String.length out > 0 && out.[String.length out - 1] = '-' then
    String.sub out 0 (String.length out - 1)
  else out

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let write_csv ~dir result =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let written = ref [] in
  let title_slug = slugify result.title in
  List.iter
    (fun { label; data } ->
      let path =
        Filename.concat dir (title_slug ^ "--" ^ slugify label ^ ".csv")
      in
      let oc = open_out path in
      output_string oc "time_us,value\n";
      List.iter
        (fun (time, v) ->
          Printf.fprintf oc "%.3f,%.6f\n" (Engine.Time.to_float_us time) v)
        (Stats.Timeseries.points data);
      close_out oc;
      written := path :: !written)
    result.series;
  (match result.table with
  | Some t ->
    let path = Filename.concat dir (title_slug ^ "-table.csv") in
    let oc = open_out path in
    let emit row =
      output_string oc (String.concat "," (List.map csv_escape row));
      output_char oc '\n'
    in
    emit (Stats.Table.columns t);
    List.iter emit (Stats.Table.rows t);
    close_out oc;
    written := path :: !written
  | None -> ());
  List.rev !written
