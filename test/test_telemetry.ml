(* Tests for the telemetry subsystem: event ring, metrics registry,
   global context, and the JSONL/CSV exporters.

   The exporters are validated with a small recursive-descent JSON
   parser below, so a malformed escape or a bare NaN in the output is a
   test failure here rather than a surprise in whatever consumes the
   files. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------- minimal JSON parser --------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at %d in %s" msg !pos s)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let string_body () =
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' as c) | Some ('\\' as c) | Some ('/' as c) ->
            Buffer.add_char buf c;
            advance ();
            go ()
          | Some 'n' ->
            Buffer.add_char buf '\n';
            advance ();
            go ()
          | Some 't' ->
            Buffer.add_char buf '\t';
            advance ();
            go ()
          | Some 'r' ->
            Buffer.add_char buf '\r';
            advance ();
            go ()
          | Some 'u' ->
            advance ();
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
              | _ -> fail "bad \\u escape"
            done;
            Buffer.add_char buf '?';
            go ()
          | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "raw control char in string"
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match float_of_string_opt text with
      | Some f -> Num f
      | None -> fail ("bad number " ^ text)
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else Obj (members [])
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else List (elements [])
      | Some '"' ->
        advance ();
        Str (string_body ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "unexpected character"
    and members acc =
      skip_ws ();
      expect '"';
      let key = string_body () in
      skip_ws ();
      expect ':';
      let v = value () in
      skip_ws ();
      match peek () with
      | Some ',' ->
        advance ();
        members ((key, v) :: acc)
      | Some '}' ->
        advance ();
        List.rev ((key, v) :: acc)
      | _ -> fail "expected , or }"
    and elements acc =
      let v = value () in
      skip_ws ();
      match peek () with
      | Some ',' ->
        advance ();
        elements (v :: acc)
      | Some ']' ->
        advance ();
        List.rev (v :: acc)
      | _ -> fail "expected , or ]"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let field obj key =
    match obj with
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None
end

(* ------------------------------ helpers ----------------------------- *)

(* Every test that touches the global context runs inside this wrapper
   so a failure cannot leak an enabled context into unrelated tests
   (the whole suite asserts telemetry-off costs elsewhere). *)
let with_ctx ?events_capacity f =
  Telemetry.Ctx.enable ?events_capacity ();
  Telemetry.Ctx.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.Ctx.disable ()) f

let capture f =
  let path = Filename.temp_file "telemetry" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      f path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s)

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

(* ------------------------------ events ------------------------------ *)

let emit ?(at = 0) ?(kind = Telemetry.Events.Enqueue) ?(point = "p") ?(uid = 1)
    ?(src = 0) ?(dst = 1) ?(size = 100) ?(a = 0) ?(b = 0) ev =
  Telemetry.Events.emit ev ~at ~kind ~point ~uid ~src ~dst ~size ~a ~b

let test_ring_basic () =
  let ev = Telemetry.Events.create ~capacity:8 () in
  for i = 1 to 5 do
    emit ev ~at:i ~uid:i
  done;
  checki "total" 5 (Telemetry.Events.total ev);
  checki "retained" 5 (Telemetry.Events.retained ev);
  checki "dropped" 0 (Telemetry.Events.dropped ev);
  let seen = ref [] in
  Telemetry.Events.iter ev (fun r -> seen := r.Telemetry.Events.uid :: !seen);
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3; 4; 5 ]
    (List.rev !seen)

let test_ring_wraps () =
  let ev = Telemetry.Events.create ~capacity:4 () in
  for i = 1 to 10 do
    emit ev ~at:i ~uid:i
  done;
  checki "total" 10 (Telemetry.Events.total ev);
  checki "retained" 4 (Telemetry.Events.retained ev);
  checki "dropped" 6 (Telemetry.Events.dropped ev);
  let seen = ref [] in
  Telemetry.Events.iter ev (fun r -> seen := r.Telemetry.Events.uid :: !seen);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 7; 8; 9; 10 ]
    (List.rev !seen)

(* ----------------------------- registry ----------------------------- *)

let test_registry_gauge_replaces () =
  let reg = Telemetry.Registry.create () in
  Telemetry.Registry.set_gauge reg "depth" (fun () -> 1.0);
  Telemetry.Registry.set_gauge reg "depth" (fun () -> 2.0);
  match Telemetry.Registry.snapshot reg with
  | [ { Telemetry.Registry.row_name; row_kind; row_fields } ] ->
    checks "name" "depth" row_name;
    checks "kind" "gauge" row_kind;
    Alcotest.(check (list (pair string (float 0.0))))
      "latest closure wins" [ ("value", 2.0) ] row_fields
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_registry_kind_clash_rejected () =
  let reg = Telemetry.Registry.create () in
  ignore (Telemetry.Registry.histogram reg ~lo:0.0 ~hi:1.0 ~buckets:1 "x");
  checkb "kind clash raises" true
    (try
       Telemetry.Registry.set_gauge reg "x" (fun () -> 0.0);
       false
     with Invalid_argument _ -> true)

let test_registry_snapshot_sorted () =
  let reg = Telemetry.Registry.create () in
  List.iter
    (fun name -> Telemetry.Registry.set_gauge reg name (fun () -> 0.0))
    [ "zeta"; "alpha"; "mid" ];
  let names =
    List.map
      (fun r -> r.Telemetry.Registry.row_name)
      (Telemetry.Registry.snapshot reg)
  in
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] names

let test_registry_histogram_shared () =
  let reg = Telemetry.Registry.create () in
  let h1 =
    Telemetry.Registry.histogram reg ~lo:0.0 ~hi:10.0 ~buckets:5 "lat"
  in
  Stats.Histogram.add h1 3.0;
  let h2 =
    (* Different bounds are ignored on get: same underlying histogram. *)
    Telemetry.Registry.histogram reg ~lo:0.0 ~hi:99.0 ~buckets:9 "lat"
  in
  Stats.Histogram.add h2 4.0;
  checki "shared cells" 2 (Stats.Histogram.count h1)

(* ------------------------------- ctx -------------------------------- *)

let test_ctx_disabled_by_default () =
  checkb "off" false (Telemetry.Ctx.on ())

let test_ctx_enable_reset () =
  with_ctx (fun () ->
      checkb "on" true (Telemetry.Ctx.on ());
      emit (Telemetry.Ctx.events ()) ~uid:7;
      Telemetry.Registry.set_gauge (Telemetry.Ctx.metrics ()) "c" (fun () -> 0.0);
      Telemetry.Ctx.mark_run "first";
      Telemetry.Ctx.reset ();
      checkb "still on after reset" true (Telemetry.Ctx.on ());
      checki "events gone" 0 (Telemetry.Events.retained (Telemetry.Ctx.events ()));
      checki "metrics gone" 0
        (Telemetry.Registry.metric_count (Telemetry.Ctx.metrics ()));
      checki "runs gone" 0 (List.length (Telemetry.Ctx.runs ())))

let test_ctx_mark_run_labels () =
  with_ctx (fun () ->
      Telemetry.Registry.set_gauge (Telemetry.Ctx.metrics ()) "c" (fun () -> 0.0);
      Telemetry.Ctx.mark_run "dctcp";
      Telemetry.Ctx.mark_run "mtp";
      let labels = List.map fst (Telemetry.Ctx.runs ()) in
      Alcotest.(check (list string)) "oldest first" [ "dctcp"; "mtp" ] labels)

(* The context is a main-domain singleton: the parallel runner's
   worker domains must never reach the shared ring.  Off the main
   domain [on] answers false (instrumented sites skip), [mark_run] is
   a no-op, and [enable] raises — the chosen behaviour for the
   telemetry-vs-domains decision (see DESIGN.md "Parallel runner"). *)
let test_ctx_main_domain_only () =
  with_ctx (fun () ->
      checkb "on() true on the main domain" true (Telemetry.Ctx.on ());
      checkb "on() false on a worker domain" false
        (Domain.join (Domain.spawn (fun () -> Telemetry.Ctx.on ())));
      checkb "enable raises on a worker domain" true
        (Domain.join
           (Domain.spawn (fun () ->
                match Telemetry.Ctx.enable () with
                | () -> false
                | exception Failure _ -> true)));
      Telemetry.Ctx.mark_run "on-main";
      Domain.join
        (Domain.spawn (fun () -> Telemetry.Ctx.mark_run "off-main"));
      Alcotest.(check (list string)) "off-main mark_run is a no-op"
        [ "on-main" ]
        (List.map fst (Telemetry.Ctx.runs ())))

(* ------------------------------ export ------------------------------ *)

let test_trace_jsonl_parses () =
  with_ctx (fun () ->
      let ev = Telemetry.Ctx.events () in
      emit ev ~at:1_000 ~kind:Telemetry.Events.Enqueue ~point:{|we"ird\name|}
        ~a:3 ~b:4500;
      emit ev ~at:2_000 ~kind:Telemetry.Events.Send ~point:"tcp" ~uid:(-1)
        ~size:1460 ~a:17 ~b:14600;
      emit ev ~at:3_000 ~kind:Telemetry.Events.Complete ~point:"mtp" ~uid:(-1)
        ~size:100_000 ~a:9 ~b:812;
      let out = capture (fun p -> Telemetry.Export.write_trace p) in
      let ls = lines out in
      checki "three lines" 3 (List.length ls);
      let objs = List.map Json.parse ls in
      List.iter
        (fun o ->
          checkb "has t_us" true (Json.field o "t_us" <> None);
          checkb "has kind" true (Json.field o "kind" <> None);
          checkb "has point" true (Json.field o "point" <> None))
        objs;
      (match List.nth objs 0 |> fun o -> Json.field o "point" with
      | Some (Json.Str s) -> checks "escaping round-trips" {|we"ird\name|} s
      | _ -> Alcotest.fail "point missing");
      match List.nth objs 1 with
      | o ->
        checkb "kind-specific a name" true (Json.field o "seq" <> None);
        checkb "kind-specific b name" true (Json.field o "cwnd" <> None))

let test_trace_jsonl_reports_truncation () =
  with_ctx ~events_capacity:4 (fun () ->
      (* Capacity arrives via [enable]; [reset] in [with_ctx] preserves
         it.  Overflow the ring, then look for the in-band marker. *)
      let ev = Telemetry.Ctx.events () in
      for i = 1 to 9 do
        emit ev ~at:i ~uid:i
      done;
      let out = capture (fun p -> Telemetry.Export.write_trace p) in
      let ls = lines out in
      checki "4 events + marker" 5 (List.length ls);
      match Json.parse (List.nth ls 4) with
      | o -> (
        (match Json.field o "kind" with
        | Some (Json.Str k) -> checks "marker kind" "truncated" k
        | _ -> Alcotest.fail "marker kind missing");
        match Json.field o "dropped" with
        | Some (Json.Num d) -> checki "dropped count" 5 (int_of_float d)
        | _ -> Alcotest.fail "dropped missing"))

let test_trace_csv_shape () =
  with_ctx (fun () ->
      let ev = Telemetry.Ctx.events () in
      emit ev ~at:1_000 ~uid:3;
      let out = capture (fun p -> Telemetry.Export.write_trace ~format:`Csv p) in
      match lines out with
      | header :: rows ->
        checks "header" "t_us,kind,point,uid,src,dst,size,a,b" header;
        checki "one row" 1 (List.length rows);
        List.iter
          (fun row ->
            checki "column count" 9
              (List.length (String.split_on_char ',' row)))
          rows
      | [] -> Alcotest.fail "empty csv")

let test_metrics_csv_runs () =
  with_ctx (fun () ->
      let reg = Telemetry.Ctx.metrics () in
      let events = ref 3.0 in
      Telemetry.Registry.set_gauge reg "events" (fun () -> !events);
      Telemetry.Ctx.mark_run "variant-a";
      events := 7.0;
      let out = capture (fun p -> Telemetry.Export.write_metrics p) in
      match lines out with
      | header :: rows ->
        checks "header" "run,metric,kind,field,value" header;
        Alcotest.(check (list string))
          "snapshot rows: marked run then end"
          [ "variant-a,events,gauge,value,3"; "end,events,gauge,value,7" ]
          rows
      | [] -> Alcotest.fail "empty csv")

let test_metrics_jsonl_parses () =
  with_ctx (fun () ->
      let reg = Telemetry.Ctx.metrics () in
      (* A gauge returning NaN must export as null, not bare NaN (which
         is not JSON). *)
      Telemetry.Registry.set_gauge reg "weird" (fun () -> Float.nan);
      ignore
        (Telemetry.Registry.histogram reg ~lo:0.0 ~hi:10.0 ~buckets:2 "h");
      let out =
        capture (fun p -> Telemetry.Export.write_metrics ~format:`Jsonl p)
      in
      let objs = List.map Json.parse (lines out) in
      checkb "some rows" true (objs <> []);
      let nan_row =
        List.find
          (fun o -> Json.field o "metric" = Some (Json.Str "weird"))
          objs
      in
      checkb "NaN gauge is null" true
        (Json.field nan_row "value" = Some Json.Null))

(* --------------------------- integration ---------------------------- *)

(* A two-node hot-potato run with telemetry enabled: the link must
   produce enqueue/dequeue events and its gauges must land in the
   registry snapshot. *)
let test_link_emits_events () =
  with_ctx (fun () ->
      let sim = Engine.Sim.create () in
      let link =
        Netsim.Link.create sim ~name:"l0" ~rate:(Engine.Time.gbps 10)
          ~delay:(Engine.Time.us 1) ()
      in
      let delivered = ref 0 in
      Netsim.Link.set_dst link (fun _ -> incr delivered);
      for i = 0 to 4 do
        let p =
          Netsim.Packet.make ~entity:0 ~prio:0 ~flow_hash:0
            ~payload:Netsim.Packet.Raw sim ~src:0 ~dst:1 ~size:1500
        in
        ignore i;
        Netsim.Link.send link p
      done;
      Engine.Sim.run sim;
      checki "all delivered" 5 !delivered;
      let enq = ref 0 and deq = ref 0 in
      Telemetry.Events.iter (Telemetry.Ctx.events ()) (fun r ->
          match r.Telemetry.Events.kind with
          | Telemetry.Events.Enqueue -> incr enq
          | Telemetry.Events.Dequeue -> incr deq
          | _ -> ());
      checki "enqueues" 5 !enq;
      checki "dequeues" 5 !deq;
      let names =
        List.map
          (fun r -> r.Telemetry.Registry.row_name)
          (Telemetry.Registry.snapshot (Telemetry.Ctx.metrics ()))
      in
      checkb "link gauges registered" true
        (List.mem "link.l0.queue_pkts" names
        && List.mem "link.l0.sent_bytes" names))

let suite =
  [ Alcotest.test_case "ring basic" `Quick test_ring_basic;
    Alcotest.test_case "ring wraps" `Quick test_ring_wraps;
    Alcotest.test_case "gauge replaces" `Quick test_registry_gauge_replaces;
    Alcotest.test_case "kind clash" `Quick test_registry_kind_clash_rejected;
    Alcotest.test_case "snapshot sorted" `Quick test_registry_snapshot_sorted;
    Alcotest.test_case "histogram shared" `Quick test_registry_histogram_shared;
    Alcotest.test_case "ctx off by default" `Quick test_ctx_disabled_by_default;
    Alcotest.test_case "ctx enable/reset" `Quick test_ctx_enable_reset;
    Alcotest.test_case "ctx run marks" `Quick test_ctx_mark_run_labels;
    Alcotest.test_case "ctx main-domain only" `Quick
      test_ctx_main_domain_only;
    Alcotest.test_case "trace jsonl parses" `Quick test_trace_jsonl_parses;
    Alcotest.test_case "trace truncation marker" `Quick
      test_trace_jsonl_reports_truncation;
    Alcotest.test_case "trace csv shape" `Quick test_trace_csv_shape;
    Alcotest.test_case "metrics csv runs" `Quick test_metrics_csv_runs;
    Alcotest.test_case "metrics jsonl parses" `Quick test_metrics_jsonl_parses;
    Alcotest.test_case "link integration" `Quick test_link_emits_events ]
