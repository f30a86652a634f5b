(* Telemetry export surfaces: Chrome trace conversion, OpenMetrics
   exposition, the query flight recorder, and per-query resource
   attribution — each validated by re-parsing its output format, not by
   string-matching the producer. *)

module Store = Mass.Store
module Service = Vamana_service.Service
module Metrics = Vamana_service.Metrics
module Flight = Storage.Flight
module Json = Vamana.Profile.Json

let with_bus f =
  Obs.reset ();
  Fun.protect ~finally:Obs.reset f

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vamana_telemetry_%d_%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let d = tmp_dir () in
  Unix.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---- Chrome trace validation ------------------------------------- *)

(* Parse a trace document and enforce the format's invariants: every
   non-metadata event has a tid and a timestamp, B/E pairs are balanced
   per tid, and timestamps never go backwards within a tid.  Returns
   the event list for further assertions. *)
let validate_chrome json_str =
  match Json.of_string json_str with
  | Error m -> Alcotest.fail ("trace is not valid JSON: " ^ m)
  | Ok j ->
      let evs =
        match Json.member "traceEvents" j with
        | Some (Json.Arr l) -> l
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      let per_tid = Hashtbl.create 8 in
      (* tid -> (open span depth, last ts seen) *)
      List.iter
        (fun ev ->
          let ph =
            match Json.member "ph" ev with
            | Some (Json.Str s) -> s
            | _ -> Alcotest.fail "event without ph"
          in
          if ph <> "M" then begin
            let tid =
              match Json.member "tid" ev with
              | Some (Json.Int t) -> t
              | _ -> Alcotest.fail "event without tid"
            in
            let ts =
              match Json.member "ts" ev with
              | Some (Json.Float f) -> f
              | Some (Json.Int i) -> float_of_int i
              | _ -> Alcotest.fail "event without ts"
            in
            let depth, last =
              match Hashtbl.find_opt per_tid tid with
              | Some p -> p
              | None -> (0, neg_infinity)
            in
            Alcotest.(check bool) "ts monotone within tid" true (ts >= last);
            let depth' =
              match ph with
              | "B" -> depth + 1
              | "E" ->
                  Alcotest.(check bool) "E only closes an open B" true (depth > 0);
                  depth - 1
              | "i" -> depth
              | other -> Alcotest.failf "unexpected phase %s" other
            in
            Hashtbl.replace per_tid tid (depth', ts)
          end)
        evs;
      Hashtbl.iter
        (fun tid (depth, _) ->
          if depth <> 0 then Alcotest.failf "unbalanced spans on tid %d" tid)
        per_tid;
      evs

let count_phase ph evs =
  List.length
    (List.filter (fun ev -> Json.member "ph" ev = Some (Json.Str ph)) evs)

(* synthetic events with hand-built durations exercise the nesting
   repair: two overlapping spans in one category, an instant, and a
   second category with an Int-valued duration *)
let test_trace_synthetic () =
  with_bus @@ fun () ->
  Obs.attach_ring ();
  Obs.emit ~category:"alpha" "outer" [ ("dur_ms", Obs.Float 5.0) ];
  Obs.emit ~category:"alpha" "inner" [ ("dur_ms", Obs.Float 1.0) ];
  Obs.emit ~category:"alpha" "tick" [ ("n", Obs.Int 3) ];
  Obs.emit ~category:"beta" "only" [ ("dur_ms", Obs.Int 2) ];
  let events = Obs.drain () in
  let evs = validate_chrome (Obs.Trace.to_chrome events) in
  Alcotest.(check int) "three spans open" 3 (count_phase "B" evs);
  Alcotest.(check int) "three spans close" 3 (count_phase "E" evs);
  Alcotest.(check int) "one instant" 1 (count_phase "i" evs);
  (* one process-name meta plus one thread-name meta per category *)
  Alcotest.(check int) "metadata for process and both threads" 3
    (count_phase "M" evs);
  let tids =
    List.filter_map
      (fun ev ->
        if Json.member "ph" ev = Some (Json.Str "M") then None
        else match Json.member "tid" ev with Some (Json.Int t) -> Some t | _ -> None)
      evs
  in
  Alcotest.(check int) "two threads" 2
    (List.length (List.sort_uniq compare tids))

(* a real query through the service produces a loadable trace whose
   spans carry the query id minted by the attribution context *)
let test_trace_end_to_end () =
  with_bus @@ fun () ->
  let store = Store.create ~pool_pages:256 () in
  let doc =
    Store.load store ~name:"t.xml"
      (Xml.Parser.parse "<site><a><b>one</b><b>two</b></a><c>three</c></site>")
  in
  let service = Service.create store in
  Obs.attach_ring ~capacity:4096 ();
  (match Service.query service ~context:doc.Store.doc_key "//b" with
  | Ok o ->
      Alcotest.(check int) "query answered" 2
        (List.length o.Service.result.Vamana.Engine.keys)
  | Error e -> Alcotest.fail e);
  let events = Obs.drain () in
  let trace = Obs.Trace.to_chrome events in
  let evs = validate_chrome trace in
  Alcotest.(check bool) "at least the four engine phase spans" true
    (count_phase "B" evs >= 4);
  Alcotest.(check int) "balanced" (count_phase "B" evs) (count_phase "E" evs);
  Alcotest.(check bool) "spans carry the query id" true (contains {|"qid"|} trace)

(* ---- OpenMetrics validation -------------------------------------- *)

let parse_sample line =
  let value_of s =
    match float_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> Alcotest.failf "unparseable sample value in: %s" line
  in
  match String.index_opt line '{' with
  | Some i ->
      let j =
        match String.index_opt line '}' with
        | Some j when j > i -> j
        | _ -> Alcotest.failf "unterminated label set in: %s" line
      in
      ( String.sub line 0 i,
        String.sub line (i + 1) (j - i - 1),
        value_of (String.sub line (j + 1) (String.length line - j - 1)) )
  | None -> (
      match String.index_opt line ' ' with
      | Some i ->
          ( String.sub line 0 i,
            "",
            value_of (String.sub line i (String.length line - i)) )
      | None -> Alcotest.failf "malformed sample line: %s" line)

let label_value labels key =
  let marker = key ^ "=\"" in
  let n = String.length labels in
  let rec find i =
    if i + String.length marker > n then None
    else if String.sub labels i (String.length marker) = marker then begin
      let start = i + String.length marker in
      match String.index_from_opt labels start '"' with
      | Some stop -> Some (String.sub labels start (stop - start))
      | None -> None
    end
    else find (i + 1)
  in
  find 0

(* Enforce the exposition-format rules the scrapers rely on: one TYPE
   per family, every sample owned by a declared family, counter samples
   end in _total with non-negative values, histogram buckets cumulative
   with a trailing +Inf equal to _count, and a final # EOF. *)
let validate_openmetrics body =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  (match List.rev lines with
  | "# EOF" :: _ -> ()
  | _ -> Alcotest.fail "exposition must end with # EOF");
  let types = Hashtbl.create 32 in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; fam; kind ] ->
            if Hashtbl.mem types fam then
              Alcotest.failf "duplicate TYPE for %s" fam;
            if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
              Alcotest.failf "unknown metric kind %s" kind;
            Hashtbl.replace types fam kind
        | [ "#"; "EOF" ] -> ()
        | "#" :: "HELP" :: _ -> ()
        | _ -> Alcotest.failf "malformed comment line: %s" line)
    lines;
  let samples =
    List.map parse_sample
      (List.filter (fun l -> l <> "" && l.[0] <> '#') lines)
  in
  let family_of name =
    Hashtbl.fold
      (fun fam kind acc ->
        match acc with
        | Some _ -> acc
        | None ->
            let owns =
              match kind with
              | "counter" -> name = fam ^ "_total"
              | "gauge" -> name = fam
              | "histogram" ->
                  name = fam ^ "_bucket" || name = fam ^ "_sum"
                  || name = fam ^ "_count"
              | _ -> false
            in
            if owns then Some (fam, kind) else None)
      types None
  in
  let hist_buckets = Hashtbl.create 8 and hist_count = Hashtbl.create 8 in
  List.iter
    (fun (name, labels, v) ->
      match family_of name with
      | None -> Alcotest.failf "sample %s has no TYPE declaration" name
      | Some (fam, "counter") ->
          Alcotest.(check bool) (fam ^ " counter non-negative") true (v >= 0.0)
      | Some (fam, "histogram") ->
          if name = fam ^ "_bucket" then begin
            let le =
              match label_value labels "le" with
              | Some le -> le
              | None -> Alcotest.failf "%s bucket without le label" fam
            in
            let prev =
              match Hashtbl.find_opt hist_buckets fam with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace hist_buckets fam ((le, v) :: prev)
          end
          else if name = fam ^ "_count" then Hashtbl.replace hist_count fam v
      | Some _ -> ())
    samples;
  Hashtbl.iter
    (fun fam rev_buckets ->
      let buckets = List.rev rev_buckets in
      ignore
        (List.fold_left
           (fun prev (_, v) ->
             Alcotest.(check bool) (fam ^ " buckets cumulative") true (v >= prev);
             v)
           0.0 buckets);
      match List.rev buckets with
      | (le, last_v) :: _ ->
          Alcotest.(check string) (fam ^ " last bucket le") "+Inf" le;
          (match Hashtbl.find_opt hist_count fam with
          | Some c ->
              Alcotest.(check (float 0.0)) (fam ^ " +Inf bucket equals count")
                c last_v
          | None -> Alcotest.failf "%s has buckets but no _count" fam)
      | [] -> ())
    hist_buckets;
  samples

let test_openmetrics () =
  with_bus @@ fun () ->
  with_dir @@ fun dir ->
  let store = Store.create ~backend:(Store.File { dir }) () in
  let doc =
    Store.load store ~name:"t.xml"
      (Xml.Parser.parse "<site><a><b>one</b><b>two</b></a></site>")
  in
  let service = Service.create store in
  (match Service.query service ~context:doc.Store.doc_key "//b" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let body =
    Metrics.to_openmetrics
      ~io:(Store.io_stats store)
      ~pools:(Store.io_by_index store)
      ?disk:(Store.disk_io store)
      (Service.metrics service)
  in
  let samples = validate_openmetrics body in
  let has name = List.exists (fun (n, _, _) -> n = name) samples in
  Alcotest.(check bool) "query counter exported" true
    (has "vamana_queries_total");
  Alcotest.(check bool) "aggregate page reads exported" true
    (has "vamana_page_logical_reads_total");
  Alcotest.(check bool) "per-pool samples labelled" true
    (List.exists
       (fun (n, labels, _) ->
         contains "vamana_pool_" n && label_value labels "index" <> None)
       samples);
  Alcotest.(check bool) "disk counters exported" true
    (has "vamana_fsyncs_total");
  Alcotest.(check bool) "latency histogram exported" true
    (List.exists (fun (n, _, _) -> contains "_seconds_bucket" n) samples);
  Store.close store

(* ---- flight recorder --------------------------------------------- *)

let end_record ~qid ~source ~ok =
  { Flight.qid; source; ok; cache = "miss"; latency_us = 1250 + qid;
    pages_read = 10 * qid; physical_reads = qid; wal_bytes = 0; fsyncs = 0;
    results = qid; epoch = 1; at_ms = 1_700_000_000_000 + qid;
    sampled = qid mod 2 = 0; drift = float_of_int qid /. 4. }

let test_flight_roundtrip () =
  with_dir @@ fun dir ->
  let t = Flight.open_dir ~dir () in
  for qid = 1 to 3 do
    Flight.record_begin t ~qid ~epoch:1 ~source:(Printf.sprintf "//q%d" qid);
    Flight.record_end t (end_record ~qid ~source:(Printf.sprintf "//q%d" qid) ~ok:(qid <> 2))
  done;
  Flight.close t;
  Flight.close t (* idempotent *);
  let entries = Flight.read_dir ~dir in
  Alcotest.(check int) "six records" 6 (List.length entries);
  (match entries with
  | Flight.Begin b :: Flight.End e :: _ ->
      Alcotest.(check int) "begin qid" 1 b.Flight.b_qid;
      Alcotest.(check string) "begin source" "//q1" b.Flight.b_source;
      Alcotest.(check int) "end qid" 1 e.Flight.qid;
      Alcotest.(check int) "latency survives" 1251 e.Flight.latency_us;
      Alcotest.(check int) "pages survive" 10 e.Flight.pages_read;
      Alcotest.(check bool) "ok flag survives" true e.Flight.ok
  | _ -> Alcotest.fail "expected Begin/End leading pair");
  let failed =
    List.filter_map
      (function Flight.End e when not e.Flight.ok -> Some e.Flight.qid | _ -> None)
      entries
  in
  Alcotest.(check (list int)) "error outcome survives" [ 2 ] failed;
  Alcotest.(check int) "nothing in flight" 0
    (List.length (Flight.in_flight entries))

let test_flight_in_flight () =
  with_dir @@ fun dir ->
  let t = Flight.open_dir ~dir () in
  Flight.record_begin t ~qid:1 ~epoch:1 ~source:"//done";
  Flight.record_end t (end_record ~qid:1 ~source:"//done" ~ok:true);
  Flight.record_begin t ~qid:2 ~epoch:1 ~source:"//stuck";
  Flight.close t;
  match Flight.in_flight (Flight.read_dir ~dir) with
  | [ b ] ->
      Alcotest.(check int) "in-flight qid" 2 b.Flight.b_qid;
      Alcotest.(check string) "in-flight source" "//stuck" b.Flight.b_source
  | bs -> Alcotest.failf "expected 1 in-flight query, got %d" (List.length bs)

let test_flight_rotation () =
  with_dir @@ fun dir ->
  let t = Flight.open_dir ~max_bytes:4096 ~dir () in
  let source = String.make 100 'x' in
  for qid = 1 to 60 do
    Flight.record_begin t ~qid ~epoch:1 ~source;
    Flight.record_end t (end_record ~qid ~source ~ok:true)
  done;
  Flight.close t;
  Alcotest.(check bool) "rotated generation exists" true
    (Sys.file_exists (Filename.concat dir (Flight.file_name ^ ".1")));
  Alcotest.(check bool) "log stays bounded" true
    ((Unix.stat (Filename.concat dir Flight.file_name)).Unix.st_size <= 8192);
  let entries = Flight.read_dir ~dir in
  Alcotest.(check bool) "rotation drops only old generations" true
    (List.length entries > 0 && List.length entries < 120);
  let newest =
    List.fold_left
      (fun acc -> function Flight.End e -> max acc e.Flight.qid | _ -> acc)
      0 entries
  in
  Alcotest.(check int) "newest record survives rotation" 60 newest

let test_flight_torn_tail () =
  with_dir @@ fun dir ->
  let t = Flight.open_dir ~dir () in
  for qid = 1 to 3 do
    Flight.record_end t (end_record ~qid ~source:"//q" ~ok:true)
  done;
  Flight.close t;
  let path = Filename.concat dir Flight.file_name in
  let intact_size = (Unix.stat path).Unix.st_size in
  (* garbage appended after the last intact frame is ignored *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc (String.make 20 '\xFF');
  close_out oc;
  Alcotest.(check int) "garbage tail ignored" 3
    (List.length (Flight.read_dir ~dir));
  (* a frame cut mid-write costs exactly the record being written *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (intact_size - 5);
  Unix.close fd;
  Alcotest.(check int) "torn frame drops only itself" 2
    (List.length (Flight.read_dir ~dir))

(* ---- per-query attribution --------------------------------------- *)

(* On a single-query batch the attributed counters must equal the
   store's global deltas — the sum-consistency the slow log, EXPLAIN
   ANALYZE and the flight recorder all rely on — and the three views of
   the query (slow-log record, slow_query event, flight End frame) must
   agree.  Runs on the file backend so the WAL/fsync columns are
   exercised too. *)
let test_attribution_sum_consistency () =
  with_bus @@ fun () ->
  with_dir @@ fun dir ->
  let store = Store.create ~backend:(Store.File { dir }) () in
  let doc =
    Store.load store ~name:"t.xml"
      (Xml.Parser.parse
         "<site><a><b>one</b><b>two</b></a><c><b>three</b></c></site>")
  in
  let flight = Flight.open_dir ~dir () in
  let service =
    Service.create ~result_cache_capacity:0 ~slow_threshold:0.0 ~flight store
  in
  Obs.attach_ring ();
  Store.reset_io_stats store;
  let disk0 = Storage.Disk.copy_io (Option.get (Store.disk_io store)) in
  let outcome =
    match Service.query service ~context:doc.Store.doc_key "//b" with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let a = outcome.Service.attribution in
  let g = Store.io_stats store in
  let dd = Storage.Disk.diff_io (Option.get (Store.disk_io store)) disk0 in
  Alcotest.(check bool) "query did real reads" true
    (a.Vamana.Engine.attr_io.Storage.Stats.logical_reads > 0);
  Alcotest.(check int) "logical reads sum to the global delta"
    g.Storage.Stats.logical_reads
    a.Vamana.Engine.attr_io.Storage.Stats.logical_reads;
  Alcotest.(check int) "physical reads sum to the global delta"
    g.Storage.Stats.physical_reads
    a.Vamana.Engine.attr_io.Storage.Stats.physical_reads;
  Alcotest.(check int) "wal bytes attributed" dd.Storage.Disk.wal_bytes_written
    a.Vamana.Engine.attr_wal_bytes;
  Alcotest.(check int) "fsyncs attributed" dd.Storage.Disk.fsyncs
    a.Vamana.Engine.attr_fsyncs;
  (* the slow log cites the same run *)
  let r =
    match Service.slow_queries service with
    | [ r ] -> r
    | rs -> Alcotest.failf "expected 1 slow query, got %d" (List.length rs)
  in
  Alcotest.(check int) "slow log carries the qid" a.Vamana.Engine.attr_qid r.Service.r_qid;
  Alcotest.(check int) "slow log reads match attribution"
    a.Vamana.Engine.attr_io.Storage.Stats.logical_reads
    r.Service.r_attribution.Vamana.Engine.attr_io.Storage.Stats.logical_reads;
  Alcotest.(check int) "slow log wal bytes match" a.Vamana.Engine.attr_wal_bytes
    r.Service.r_attribution.Vamana.Engine.attr_wal_bytes;
  (* the slow_query event, the flight End frame and the record agree *)
  let ev =
    match
      List.filter
        (fun (e : Obs.event) -> e.Obs.category = "service" && e.Obs.name = "slow_query")
        (Obs.drain ())
    with
    | [ e ] -> e
    | es -> Alcotest.failf "expected 1 slow_query event, got %d" (List.length es)
  in
  let attr k =
    match List.assoc_opt k ev.Obs.attrs with
    | Some v -> v
    | None -> Alcotest.failf "slow_query event lacks %s" k
  in
  Flight.close flight;
  let e =
    match
      List.filter_map
        (function Flight.End e -> Some e | Flight.Begin _ -> None)
        (Flight.read_dir ~dir)
    with
    | [ e ] -> e
    | es -> Alcotest.failf "expected 1 flight end record, got %d" (List.length es)
  in
  let ra = r.Service.r_attribution in
  List.iter
    (fun (what, record, event, flight) ->
      Alcotest.(check bool) (what ^ ": record = event") true (Json.equal record event);
      Alcotest.(check bool) (what ^ ": record = flight") true (Json.equal record flight))
    [ ("qid", Json.Int r.Service.r_qid, attr "qid", Json.Int e.Flight.qid);
      ("source", Json.Str r.Service.r_source, attr "query", Json.Str e.Flight.source);
      ("epoch", Json.Int r.Service.r_epoch, attr "epoch", Json.Int e.Flight.epoch);
      ("results", Json.Int r.Service.r_results, attr "results", Json.Int e.Flight.results);
      ( "pages read",
        Json.Int ra.Vamana.Engine.attr_io.Storage.Stats.logical_reads,
        attr "pages_read",
        Json.Int e.Flight.pages_read );
      ( "wal bytes",
        Json.Int ra.Vamana.Engine.attr_wal_bytes,
        attr "wal_bytes",
        Json.Int e.Flight.wal_bytes );
      ("fsyncs", Json.Int ra.Vamana.Engine.attr_fsyncs, attr "fsyncs", Json.Int e.Flight.fsyncs);
      ("sampled", Json.Bool r.Service.r_sampled, attr "sampled", Json.Bool e.Flight.sampled) ];
  Alcotest.(check bool) "drift: record = event" true
    (Json.equal (Json.Float r.Service.r_drift) (attr "drift"));
  (* the flight frame stores drift in micro-units *)
  Alcotest.(check (float 1e-6)) "drift: record = flight" r.Service.r_drift e.Flight.drift;
  Alcotest.(check string) "flight keeps the query text" "//b" e.Flight.source;
  Alcotest.(check int) "flight result count" 3 e.Flight.results;
  Store.close store

(* explain analyze surfaces the same attribution *)
let test_explain_analyze_attribution () =
  with_bus @@ fun () ->
  let store = Store.create ~pool_pages:256 () in
  let doc =
    Store.load store ~name:"t.xml"
      (Xml.Parser.parse "<site><a><b>one</b></a></site>")
  in
  let text =
    match Vamana.Engine.explain_analyze store doc "//b" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "text report has the attribution section" true
    (contains "Attributed I/O (qid " text);
  let json =
    match Vamana.Engine.explain_analyze ~json:true store doc "//b" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Json.of_string json with
  | Error m -> Alcotest.fail ("explain json does not parse: " ^ m)
  | Ok j -> (
      match Json.member "attribution" j with
      | Some attribution -> (
          match
            (Json.member "qid" attribution, Json.member "pages_read" attribution)
          with
          | Some (Json.Int qid), Some (Json.Int pages) ->
              Alcotest.(check bool) "qid minted" true (qid > 0);
              Alcotest.(check bool) "pages attributed" true (pages > 0)
          | _ -> Alcotest.fail "attribution missing qid/pages_read")
      | None -> Alcotest.fail "attribution object missing from explain json")

let suite =
  ( "telemetry",
    [ Alcotest.test_case "trace synthetic" `Quick test_trace_synthetic;
      Alcotest.test_case "trace end-to-end" `Quick test_trace_end_to_end;
      Alcotest.test_case "openmetrics" `Quick test_openmetrics;
      Alcotest.test_case "flight round-trip" `Quick test_flight_roundtrip;
      Alcotest.test_case "flight in-flight" `Quick test_flight_in_flight;
      Alcotest.test_case "flight rotation" `Quick test_flight_rotation;
      Alcotest.test_case "flight torn tail" `Quick test_flight_torn_tail;
      Alcotest.test_case "attribution sum-consistency" `Quick
        test_attribution_sum_consistency;
      Alcotest.test_case "explain analyze attribution" `Quick
        test_explain_analyze_attribution ] )
