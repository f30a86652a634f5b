(* Tests for the telemetry event bus and its instrumentation hooks.

   The bus is process-global state, so every test starts and ends with
   [Obs.reset ()] — including on failure paths — to keep suites
   independent. *)

let with_bus f =
  Obs.reset ();
  Fun.protect ~finally:Obs.reset f

let test_inactive_by_default () =
  with_bus @@ fun () ->
  Alcotest.(check bool) "inactive" false (Obs.active ());
  (* emitting without a subscriber is a no-op, not an error *)
  Obs.emit ~category:"test" "ping" [];
  Alcotest.(check int) "nothing buffered" 0 (Obs.ring_length ());
  Alcotest.(check (list reject)) "drain empty" [] (Obs.drain ())

let test_ring_basics () =
  with_bus @@ fun () ->
  Obs.attach_ring ~capacity:8 ();
  Alcotest.(check bool) "active with ring" true (Obs.active ());
  Obs.emit ~category:"alpha" "first" [ ("n", Obs.Int 1) ];
  Obs.emit ~severity:Obs.Warn ~category:"beta" "second" [ ("ok", Obs.Bool false) ];
  Alcotest.(check int) "two buffered" 2 (Obs.ring_length ());
  (match Obs.drain () with
  | [ a; b ] ->
      Alcotest.(check string) "oldest first" "first" a.Obs.name;
      Alcotest.(check string) "category" "alpha" a.Obs.category;
      Alcotest.(check bool) "sequence grows" true (b.Obs.seq > a.Obs.seq);
      Alcotest.(check bool) "timestamps monotone" true (b.Obs.ts >= a.Obs.ts);
      (match b.Obs.severity with
      | Obs.Warn -> ()
      | _ -> Alcotest.fail "expected Warn")
  | es -> Alcotest.failf "expected 2 events, got %d" (List.length es));
  Alcotest.(check int) "drain empties the ring" 0 (Obs.ring_length ());
  Obs.detach_ring ();
  Alcotest.(check bool) "inactive after detach" false (Obs.active ())

let test_ring_overflow () =
  with_bus @@ fun () ->
  Obs.attach_ring ~capacity:4 ();
  for i = 1 to 7 do
    Obs.emit ~category:"test" "e" [ ("i", Obs.Int i) ]
  done;
  Alcotest.(check int) "bounded" 4 (Obs.ring_length ());
  Alcotest.(check int) "overwrites counted" 3 (Obs.dropped ());
  let kept =
    List.map
      (fun (e : Obs.event) ->
        match e.Obs.attrs with [ (_, Obs.Int i) ] -> i | _ -> -1)
      (Obs.drain ())
  in
  (* the ring keeps the newest events, oldest first *)
  Alcotest.(check (list int)) "last four survive" [ 4; 5; 6; 7 ] kept

let test_sampling () =
  with_bus @@ fun () ->
  Obs.attach_ring ();
  Obs.set_sample_rate "noisy" 3;
  Alcotest.(check int) "rate readable" 3 (Obs.sample_rate "noisy");
  Alcotest.(check int) "default rate" 1 (Obs.sample_rate "quiet");
  for i = 1 to 9 do
    Obs.emit ~category:"noisy" "n" [ ("i", Obs.Int i) ]
  done;
  Obs.emit ~category:"quiet" "q" [];
  let events = Obs.drain () in
  let noisy = List.filter (fun (e : Obs.event) -> e.Obs.category = "noisy") events in
  (* 1-in-3 keeps the first of each window: i = 1, 4, 7 *)
  Alcotest.(check int) "one in three kept" 3 (List.length noisy);
  Alcotest.(check (list int)) "window-first kept" [ 1; 4; 7 ]
    (List.map
       (fun (e : Obs.event) ->
         match e.Obs.attrs with [ (_, Obs.Int i) ] -> i | _ -> -1)
       noisy);
  Alcotest.(check int) "unsampled category untouched" 1
    (List.length (List.filter (fun (e : Obs.event) -> e.Obs.category = "quiet") events));
  Alcotest.(check int) "suppressed counted" 6 (Obs.sampled_out ())

let test_sinks () =
  with_bus @@ fun () ->
  let seen = ref [] in
  let s = Obs.attach_sink (fun e -> seen := e.Obs.name :: !seen) in
  Alcotest.(check bool) "active with sink" true (Obs.active ());
  Obs.emit ~category:"test" "one" [];
  Obs.emit ~category:"test" "two" [];
  Obs.detach_sink s;
  Obs.emit ~category:"test" "three" [];
  Alcotest.(check (list string)) "sink saw exactly the attached window" [ "two"; "one" ] !seen;
  Alcotest.(check bool) "inactive after detach" false (Obs.active ())

let test_time_span () =
  with_bus @@ fun () ->
  Obs.attach_ring ();
  let r = Obs.time_span ~category:"test" "work" [ ("tag", Obs.Str "x") ] (fun () -> 41 + 1) in
  Alcotest.(check int) "result passes through" 42 r;
  match Obs.drain () with
  | [ e ] ->
      Alcotest.(check string) "span name" "work" e.Obs.name;
      (match List.assoc_opt "dur_ms" e.Obs.attrs with
      | Some (Obs.Float d) -> Alcotest.(check bool) "duration non-negative" true (d >= 0.0)
      | _ -> Alcotest.fail "missing dur_ms");
      Alcotest.(check bool) "original attrs kept" true
        (List.mem_assoc "tag" e.Obs.attrs)
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)

let test_time_span_raise () =
  with_bus @@ fun () ->
  Obs.attach_ring ();
  (match
     Obs.time_span ~category:"test" "boom" [ ("tag", Obs.Str "x") ] (fun () ->
         failwith "kaput")
   with
  | (_ : int) -> Alcotest.fail "expected the exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "exception re-raised" "kaput" msg);
  match Obs.drain () with
  | [ e ] ->
      Alcotest.(check string) "span still emitted" "boom" e.Obs.name;
      (match e.Obs.severity with
      | Obs.Error -> ()
      | _ -> Alcotest.fail "failed span should be Error severity");
      (match List.assoc_opt "dur_ms" e.Obs.attrs with
      | Some (Obs.Float d) -> Alcotest.(check bool) "duration non-negative" true (d >= 0.0)
      | _ -> Alcotest.fail "missing dur_ms");
      (match List.assoc_opt "error" e.Obs.attrs with
      | Some (Obs.Str s) ->
          let contains needle hay =
            let n = String.length needle and m = String.length hay in
            let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "exception text captured" true (contains "kaput" s)
      | _ -> Alcotest.fail "missing error attribute");
      Alcotest.(check bool) "original attrs kept" true (List.mem_assoc "tag" e.Obs.attrs)
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)

(* the [ts] field survives a JSON round-trip as the same monotonic
   seconds the event carries — the unit the interface promises *)
let test_ts_json_roundtrip () =
  with_bus @@ fun () ->
  Obs.attach_ring ();
  Obs.emit ~category:"test" "tick" [ ("n", Obs.Int 7) ];
  let e = List.hd (Obs.drain ()) in
  let module Json = Vamana.Profile.Json in
  match Json.of_string (Obs.to_json_string e) with
  | Error m -> Alcotest.fail ("event JSON does not parse: " ^ m)
  | Ok j ->
      let ts =
        match Json.member "ts" j with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> Alcotest.fail "ts field missing"
      in
      (* rendered in shortest round-trip form *)
      Alcotest.(check bool) "ts is the event's seconds" true
        (Float.abs (ts -. e.Obs.ts) <= 1e-8 *. Float.max 1.0 (Float.abs e.Obs.ts));
      (match Json.member "seq" j with
      | Some (Json.Int s) -> Alcotest.(check int) "seq round-trips" e.Obs.seq s
      | _ -> Alcotest.fail "seq field missing")

let test_emission_context () =
  with_bus @@ fun () ->
  Obs.attach_ring ();
  let q = Obs.fresh_query_id () in
  Alcotest.(check int) "query ids start at 1" 1 q;
  Obs.with_context
    [ ("qid", Obs.Int q) ]
    (fun () ->
      Obs.emit ~category:"outer" "o" [];
      Obs.with_context
        [ ("step", Obs.Str "inner") ]
        (fun () -> Obs.emit ~category:"inner" "i" [ ("own", Obs.Bool true) ]));
  (* context is restored even when the scoped function raises *)
  (try Obs.with_context [ ("doomed", Obs.Bool true) ] (fun () -> failwith "x")
   with Failure _ -> ());
  Obs.emit ~category:"after" "a" [];
  (match Obs.drain () with
  | [ o; i; a ] ->
      Alcotest.(check bool) "outer event tagged" true
        (List.assoc_opt "qid" o.Obs.attrs = Some (Obs.Int 1));
      Alcotest.(check bool) "inner event keeps outer context" true
        (List.assoc_opt "qid" i.Obs.attrs = Some (Obs.Int 1));
      Alcotest.(check bool) "inner context stacks" true
        (List.assoc_opt "step" i.Obs.attrs = Some (Obs.Str "inner"));
      Alcotest.(check bool) "own attrs kept" true
        (List.assoc_opt "own" i.Obs.attrs = Some (Obs.Bool true));
      Alcotest.(check bool) "context restored after scope" true
        (not (List.mem_assoc "qid" a.Obs.attrs));
      Alcotest.(check bool) "raised scope left nothing behind" true
        (not (List.mem_assoc "doomed" a.Obs.attrs))
  | es -> Alcotest.failf "expected 3 events, got %d" (List.length es));
  Alcotest.(check int) "ids increment" 2 (Obs.fresh_query_id ());
  Obs.reset ();
  Alcotest.(check int) "reset restarts ids" 1 (Obs.fresh_query_id ())

(* re-attaching the ring resizes and clears it: no stale events from
   the previous window, and the overwrite counter restarts *)
let test_ring_reattach_resizes () =
  with_bus @@ fun () ->
  Obs.attach_ring ~capacity:4 ();
  for i = 1 to 3 do
    Obs.emit ~category:"t" "e" [ ("i", Obs.Int i) ]
  done;
  Obs.attach_ring ~capacity:2 ();
  Alcotest.(check int) "re-attach clears the ring" 0 (Obs.ring_length ());
  Alcotest.(check int) "overwrite counter restarts" 0 (Obs.dropped ());
  for i = 4 to 6 do
    Obs.emit ~category:"t" "e" [ ("i", Obs.Int i) ]
  done;
  Alcotest.(check int) "new capacity enforced" 2 (Obs.ring_length ());
  Alcotest.(check int) "dropped counts the new window only" 1 (Obs.dropped ());
  let kept =
    List.map
      (fun (e : Obs.event) ->
        match e.Obs.attrs with [ (_, Obs.Int i) ] -> i | _ -> -1)
      (Obs.drain ())
  in
  Alcotest.(check (list int)) "only post-reattach events survive" [ 5; 6 ] kept

let test_counters_across_reset () =
  with_bus @@ fun () ->
  Obs.attach_ring ~capacity:2 ();
  Obs.set_sample_rate "noisy" 2;
  for i = 1 to 6 do
    Obs.emit ~category:"noisy" "n" [ ("i", Obs.Int i) ]
  done;
  (* kept: 1, 3, 5 — of which the 2-slot ring overwrites one *)
  Alcotest.(check int) "sampling suppressed half" 3 (Obs.sampled_out ());
  Alcotest.(check int) "ring overwrote one" 1 (Obs.dropped ());
  Obs.reset ();
  Alcotest.(check int) "sampled_out cleared" 0 (Obs.sampled_out ());
  Alcotest.(check int) "dropped cleared" 0 (Obs.dropped ());
  Alcotest.(check int) "sample rates cleared" 1 (Obs.sample_rate "noisy");
  Alcotest.(check bool) "bus inactive" false (Obs.active ());
  (* and a fresh window starts clean *)
  Obs.attach_ring ();
  Obs.emit ~category:"noisy" "n" [];
  Alcotest.(check int) "fresh window records everything" 1 (Obs.ring_length ());
  Alcotest.(check int) "no ghost suppressions" 0 (Obs.sampled_out ())

(* every attached sink sees the same post-sampling stream *)
let test_multiple_sinks_sampling () =
  with_bus @@ fun () ->
  let a = ref [] and b = ref [] in
  let sa = Obs.attach_sink (fun e -> a := e.Obs.seq :: !a) in
  let sb = Obs.attach_sink (fun e -> b := e.Obs.seq :: !b) in
  Obs.set_sample_rate "noisy" 2;
  for _ = 1 to 4 do
    Obs.emit ~category:"noisy" "n" []
  done;
  Obs.emit ~category:"quiet" "q" [];
  Alcotest.(check (list int)) "identical post-sampling streams"
    (List.rev !a) (List.rev !b);
  Alcotest.(check int) "sampling applied once, before fan-out" 3 (List.length !a);
  Obs.detach_sink sa;
  Obs.emit ~category:"quiet" "late" [];
  Alcotest.(check int) "detached sink frozen" 3 (List.length !a);
  Alcotest.(check int) "remaining sink still fed" 4 (List.length !b);
  Alcotest.(check bool) "bus active with one sink left" true (Obs.active ());
  Obs.detach_sink sb;
  Alcotest.(check bool) "inactive after last detach" false (Obs.active ())

let test_json_rendering () =
  with_bus @@ fun () ->
  Obs.attach_ring ();
  Obs.emit ~category:"test" "escape"
    [ ("q", Obs.Str "//a[.='x\"y']\nnext");
      ("nan", Obs.Float Float.nan);
      ("n", Obs.Int (-3));
      ("b", Obs.Bool true) ];
  let e = List.hd (Obs.drain ()) in
  let json = Obs.to_json_string e in
  let contains needle =
    let n = String.length needle and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "quotes escaped" true (contains {|x\"y|});
  Alcotest.(check bool) "newline escaped" true (contains {|\nnext|});
  let module Json = Obs.Json in
  let attr k =
    match Json.of_string json with
    | Ok j -> Option.bind (Json.member "attrs" j) (Json.member k)
    | Error m -> Alcotest.fail ("event JSON does not parse: " ^ m)
  in
  Alcotest.(check bool) "non-finite floats are null" true (attr "nan" = Some Json.Null);
  Alcotest.(check bool) "ints bare" true (attr "n" = Some (Json.Int (-3)));
  Alcotest.(check bool) "bools bare" true (attr "b" = Some (Json.Bool true));
  Alcotest.(check bool) "no raw newline in line" true
    (not (String.contains json '\n'));
  (* severities round-trip through their names *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "severity round-trip" true
        (Obs.severity_of_string (Obs.severity_to_string s) = Some s))
    [ Obs.Debug; Obs.Info; Obs.Warn; Obs.Error ]

(* end-to-end: a query through the service emits spans, per-index I/O
   attribution and (over the threshold) a slow-query record *)
let test_query_events () =
  with_bus @@ fun () ->
  let store = Mass.Store.create ~pool_pages:256 () in
  let doc =
    Mass.Store.load store ~name:"t.xml"
      (Xml.Parser.parse "<site><a><b>one</b><b>two</b></a><c>three</c></site>")
  in
  let service = Vamana_service.Service.create ~slow_threshold:0.0 store in
  Obs.attach_ring ();
  (match Vamana_service.Service.query service ~context:doc.Mass.Store.doc_key "//b" with
  | Ok o -> Alcotest.(check int) "query answered" 2 (List.length o.Vamana_service.Service.result.Vamana.Engine.keys)
  | Error e -> Alcotest.fail e);
  let events = Obs.drain () in
  let names cat =
    List.filter_map
      (fun (e : Obs.event) -> if e.Obs.category = cat then Some e.Obs.name else None)
      events
  in
  List.iter
    (fun span -> Alcotest.(check bool) (span ^ " span emitted") true (List.mem span (names "query")))
    [ "parse"; "compile"; "optimize"; "execute" ];
  Alcotest.(check bool) "service query event" true (List.mem "query" (names "service"));
  Alcotest.(check bool) "slow query flagged at zero threshold" true
    (List.mem "slow_query" (names "service"));
  (* per-index attribution: the name index carries //b's reads *)
  let io =
    List.filter
      (fun (e : Obs.event) -> e.Obs.category = "storage" && e.Obs.name = "query_io")
      events
  in
  Alcotest.(check bool) "query_io emitted" true (io <> []);
  List.iter
    (fun (e : Obs.event) ->
      match (List.assoc_opt "index" e.Obs.attrs, List.assoc_opt "logical_reads" e.Obs.attrs) with
      | Some (Obs.Str idx), Some (Obs.Int n) ->
          Alcotest.(check bool) (idx ^ " attributed reads") true (n > 0)
      | _ -> Alcotest.fail "query_io missing index/logical_reads")
    io;
  (* the slow-query log kept the run, with the baseline sample's profile *)
  match Vamana_service.Service.slow_queries service with
  | [ r ] ->
      Alcotest.(check string) "logged text" "//b" r.Vamana_service.Service.r_source;
      Alcotest.(check int) "logged results" 2 r.Vamana_service.Service.r_results;
      Alcotest.(check bool) "profile attached" true
        (r.Vamana_service.Service.r_profile <> None)
  | sqs -> Alcotest.failf "expected 1 slow query, got %d" (List.length sqs)

(* the eviction instrumentation only fires while observed, and carries
   the owning pool's label *)
let test_eviction_events () =
  with_bus @@ fun () ->
  let p = Storage.Pager.create ~label:"tiny" ~pool_pages:1 () in
  let a = Storage.Pager.alloc p "a" in
  let _b = Storage.Pager.alloc p "b" in
  Alcotest.(check int) "unobserved eviction emits nothing" 0 (Obs.ring_length ());
  Obs.attach_ring ();
  ignore (Storage.Pager.read p a) (* faults a back in, evicting b *);
  match
    List.filter (fun (e : Obs.event) -> e.Obs.name = "eviction") (Obs.drain ())
  with
  | e :: _ ->
      Alcotest.(check bool) "pool label attached" true
        (List.assoc_opt "pool" e.Obs.attrs = Some (Obs.Str "tiny"))
  | [] -> Alcotest.fail "expected an eviction event"

let suite =
  ( "obs",
    [ Alcotest.test_case "inactive by default" `Quick test_inactive_by_default;
      Alcotest.test_case "ring basics" `Quick test_ring_basics;
      Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
      Alcotest.test_case "sampling" `Quick test_sampling;
      Alcotest.test_case "sinks" `Quick test_sinks;
      Alcotest.test_case "time span" `Quick test_time_span;
      Alcotest.test_case "time span raise" `Quick test_time_span_raise;
      Alcotest.test_case "ts json round-trip" `Quick test_ts_json_roundtrip;
      Alcotest.test_case "emission context" `Quick test_emission_context;
      Alcotest.test_case "ring reattach resizes" `Quick test_ring_reattach_resizes;
      Alcotest.test_case "counters across reset" `Quick test_counters_across_reset;
      Alcotest.test_case "multiple sinks" `Quick test_multiple_sinks_sampling;
      Alcotest.test_case "json rendering" `Quick test_json_rendering;
      Alcotest.test_case "query events" `Quick test_query_events;
      Alcotest.test_case "eviction events" `Quick test_eviction_events ] )
