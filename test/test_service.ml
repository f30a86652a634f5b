(* Tests for the Vamana_service query-service layer: plan-cache hit/miss
   and LRU eviction, epoch-based result-cache invalidation, the metrics
   registry, and the Lru/Histogram primitives underneath. *)

module Store = Mass.Store
module Service = Vamana_service.Service
module Metrics = Vamana_service.Metrics
module Lru = Vamana_service.Lru
module H = Storage.Stats.Histogram

let base_doc =
  "<site><people><person id='p1'><name>Ada</name><address><city>Turin</city></address></person>\
   <person id='p2'><name>Grace</name><address><city>Arlington</city></address></person>\
   </people></site>"

let setup ?plan_cache_capacity ?result_cache_capacity () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"t.xml" base_doc in
  let service = Service.create ?plan_cache_capacity ?result_cache_capacity store in
  (store, doc, service)

let keys_of service doc q =
  match Service.query_doc service doc q with
  | Ok o -> o.Service.result.Vamana.Engine.keys
  | Error e -> Alcotest.failf "query %s failed: %s" q e

let counter service = Metrics.counter (Service.metrics service)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---- Lru primitive ---- *)

let test_lru_basics () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option string)) "miss on empty" None (Lru.find c 1);
  Alcotest.(check (option (pair int string))) "no eviction below cap" None (Lru.put c 1 "a");
  ignore (Lru.put c 2 "b");
  Alcotest.(check (option string)) "hit" (Some "a") (Lru.find c 1);
  (* 1 is now MRU; inserting 3 must evict 2 *)
  Alcotest.(check (option (pair int string))) "evicts LRU" (Some (2, "b")) (Lru.put c 3 "c");
  Alcotest.(check (option string)) "2 gone" None (Lru.find c 2);
  Alcotest.(check (option string)) "1 kept" (Some "a") (Lru.find c 1);
  Alcotest.(check int) "length" 2 (Lru.length c)

let test_lru_replace_and_remove () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.put c "k" 1);
  Alcotest.(check (option (pair string int))) "replace is not eviction" None (Lru.put c "k" 2);
  Alcotest.(check (option int)) "replaced" (Some 2) (Lru.find c "k");
  Alcotest.(check int) "no duplicate entry" 1 (Lru.length c);
  Lru.remove c "k";
  Alcotest.(check (option int)) "removed" None (Lru.find c "k");
  Lru.remove c "k" (* idempotent *);
  ignore (Lru.put c "a" 1);
  ignore (Lru.put c "b" 2);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c)

let test_lru_order () =
  let c = Lru.create ~capacity:3 in
  List.iter (fun (k, v) -> ignore (Lru.put c k v)) [ (1, "a"); (2, "b"); (3, "c") ];
  Alcotest.(check (list (pair int string))) "MRU first" [ (3, "c"); (2, "b"); (1, "a") ]
    (Lru.to_list c);
  ignore (Lru.find c 1);
  Alcotest.(check (list (pair int string))) "find refreshes" [ (1, "a"); (3, "c"); (2, "b") ]
    (Lru.to_list c)

let prop_lru_bounded =
  QCheck.Test.make ~name:"lru never exceeds capacity and keeps newest" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun k -> ignore (Lru.put c k (string_of_int k))) ops;
      Lru.length c <= cap
      && (ops = [] || Lru.find c (List.nth ops (List.length ops - 1)) <> None))

(* ---- Histogram primitive ---- *)

let test_histogram () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0 (H.percentile h 99.0);
  List.iter (H.observe h) [ 0.001; 0.002; 0.004; 0.100; 0.2 ];
  Alcotest.(check int) "count" 5 (H.count h);
  Alcotest.(check (float 1e-9)) "sum exact" 0.307 (H.sum h);
  Alcotest.(check (float 1e-9)) "mean exact" (0.307 /. 5.) (H.mean h);
  Alcotest.(check (float 1e-9)) "min exact" 0.001 (H.min_value h);
  Alcotest.(check (float 1e-9)) "max exact" 0.2 (H.max_value h);
  (* percentiles are bucket upper bounds: monotone and bounded by max *)
  let p50 = H.percentile h 50.0 and p95 = H.percentile h 95.0 in
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= max" true (p95 <= H.max_value h);
  Alcotest.(check bool) "p50 sane" true (p50 >= 0.002 && p50 <= 0.005)

let test_histogram_merge () =
  let a = H.create () and b = H.create () in
  List.iter (H.observe a) [ 0.001; 0.01 ];
  List.iter (H.observe b) [ 0.1; 1.0 ];
  H.merge ~into:a b;
  Alcotest.(check int) "merged count" 4 (H.count a);
  Alcotest.(check (float 1e-9)) "merged min" 0.001 (H.min_value a);
  Alcotest.(check (float 1e-9)) "merged max" 1.0 (H.max_value a);
  Alcotest.(check int) "bucket totals" 4
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (H.buckets a))

(* ---- query normalization ---- *)

let test_normalize () =
  Alcotest.(check string) "trims and collapses" "//person/address"
    (Service.normalize "  //person\t /\n address ");
  Alcotest.(check string) "quoted text untouched" "//a[.='x  y']/b"
    (Service.normalize "//a[.='x  y']  /b");
  Alcotest.(check string) "double quotes too" "//a[.=\"p  q\"]"
    (Service.normalize " //a[.=\"p  q\"] ");
  Alcotest.(check string) "token separation survives" "a div b"
    (Service.normalize "a  div\t b");
  Alcotest.(check string) "identity" "//person" (Service.normalize "//person")

(* ---- query shapes: string literals lifted into slots ---- *)

let shape_t = Alcotest.(pair string (array string))

let test_shape_lifting () =
  Alcotest.(check shape_t) "string literal lifted" ("//person[@id=$1]/name", [| "person7" |])
    (Service.shape "//person[@id='person7']/name");
  Alcotest.(check shape_t) "double-quoted literal holding a quote"
    ("//a[@t=$1]", [| "it's" |]) (Service.shape "//a[@t=\"it's\"]");
  Alcotest.(check shape_t) "empty literal" ("//a[.=$1]", [| "" |]) (Service.shape "//a[.='']");
  Alcotest.(check shape_t) "slots numbered in source order"
    ("//a[@x=$1 or@y=$2]", [| "p"; "q" |])
    (Service.shape " //a[ @x = 'p'  or @y='q' ]");
  Alcotest.(check shape_t) "whitespace outside literals normalized, inside kept"
    ("//a[.=$1]/b", [| "x  y" |]) (Service.shape "//a[.='x  y']  /b");
  Alcotest.(check shape_t) "numbers stay in the shape" ("//a[1]/b[c>300]", [||])
    (Service.shape "//a[1]/b[c > 300]");
  Alcotest.(check shape_t) "last() stays in the shape" ("//a[last()]", [||])
    (Service.shape "//a[last()]");
  Alcotest.(check shape_t) "a processing-instruction target is a name, not a slot"
    ("//processing-instruction('t')[.=$1]", [| "v" |])
    (Service.shape "//processing-instruction('t')[.='v']");
  Alcotest.(check shape_t) "a variable reference disables lifting" ("//a[@x=$v][.='k']", [||])
    (Service.shape "//a[@x=$v][.='k']");
  Alcotest.(check shape_t) "unterminated literal kept as written" ("//a[@id='x", [||])
    (Service.shape "//a[@id='x");
  Alcotest.(check string) "normalize keeps literals" "//a[.='x  y']/b"
    (Service.normalize "//a[.='x  y']  /b")

let test_unterminated_literal_error () =
  (* the service's shape lifting must not change what the parser sees *)
  let q = "//person[@id='p1" in
  let _, doc, service = setup () in
  let want =
    match Vamana.Engine.prepare (Service.store service) ~scope:None q with
    | Error e -> e
    | Ok _ -> Alcotest.fail "expected a parse error"
  in
  match Service.query_doc service doc q with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> Alcotest.(check string) "parser's error text, unchanged" want e

(* ---- binding a cached plan to new literals ---- *)

let binding_doc =
  "<site><people><person id='p1'><name>Ada</name></person>\
   <person id='p2'><name>Grace</name></person>\
   <person id=\"it's\"><name>Quote</name></person>\
   <person id='x  y'><name>Spaced</name></person></people></site>"

(* sampling off: a sampled run's drift verdict would replan the class
   (plan cache [`Stale]), which is the health loop's business, not the
   binding's *)
let binding_setup () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"b.xml" binding_doc in
  (store, doc, Service.create ~sample_every:0 store)

let names_of store keys =
  List.map (fun k -> Store.string_value store k) keys

let serve service doc q =
  match Service.query_doc service doc q with
  | Ok o -> o
  | Error e -> Alcotest.failf "query %s failed: %s" q e

let test_bind_two_ids () =
  let store, doc, service = binding_setup () in
  let o1 = serve service doc "//person[@id='p1']/name" in
  let o2 = serve service doc "//person[@id='p2']/name" in
  Alcotest.(check bool) "first literal prepares" true (o1.Service.plan_cache = `Miss);
  Alcotest.(check bool) "second literal of the class hits" true (o2.Service.plan_cache = `Hit);
  Alcotest.(check int) "one compile" 1 (counter service "compiles");
  Alcotest.(check (list string)) "p1's answer" [ "Ada" ]
    (names_of store o1.Service.result.Vamana.Engine.keys);
  Alcotest.(check (list string)) "p2's answer" [ "Grace" ]
    (names_of store o2.Service.result.Vamana.Engine.keys);
  Alcotest.(check int) "one result entry per literal" 2 (Service.result_cache_length service);
  (* a repeat of each literal is a result-cache hit with its own answer *)
  let r1 = serve service doc "//person[@id='p1']/name" in
  Alcotest.(check bool) "p1 cached" true (r1.Service.result_cache = `Hit);
  Alcotest.(check (list string)) "p1 cached answer" [ "Ada" ]
    (names_of store r1.Service.result.Vamana.Engine.keys);
  (* quotes and inner whitespace survive the binding *)
  Alcotest.(check (list string)) "double-quoted literal" [ "Quote" ]
    (names_of store (serve service doc "//person[@id=\"it's\"]/name").Service.result.Vamana.Engine.keys);
  Alcotest.(check (list string)) "spaces inside the literal" [ "Spaced" ]
    (names_of store (serve service doc "//person[@id='x  y']/name").Service.result.Vamana.Engine.keys);
  Alcotest.(check int) "still one compile" 1 (counter service "compiles")

let test_bind_empty_and_nonempty_classes () =
  (* a TC = 0 literal and a TC > 0 literal are different classes: each
     gets its own plan, and neither answer leaks into the other, in
     either order *)
  List.iter
    (fun order ->
      let store, doc, service = binding_setup () in
      let answers =
        List.map
          (fun id ->
            let o = serve service doc (Printf.sprintf "//person[@id='%s']/name" id) in
            (id, names_of store o.Service.result.Vamana.Engine.keys))
          order
      in
      let label = String.concat "," order in
      Alcotest.(check (list string)) (label ^ ": absent id is empty") []
        (List.assoc "nobody" answers);
      Alcotest.(check (list string)) (label ^ ": p1 answers") [ "Ada" ] (List.assoc "p1" answers);
      Alcotest.(check int) (label ^ ": two plans") 2 (Service.plan_cache_length service);
      Alcotest.(check int) (label ^ ": two compiles") 2 (counter service "compiles");
      (* a second absent literal binds into the empty class's plan *)
      let o = serve service doc "//person[@id='nobody2']/name" in
      Alcotest.(check bool) (label ^ ": empty class hit") true (o.Service.plan_cache = `Hit);
      Alcotest.(check int) (label ^ ": nobody2 empty") 0
        (List.length o.Service.result.Vamana.Engine.keys);
      (* and a second present literal into the non-empty class's *)
      let o = serve service doc "//person[@id='p2']/name" in
      Alcotest.(check bool) (label ^ ": non-empty class hit") true (o.Service.plan_cache = `Hit);
      Alcotest.(check (list string)) (label ^ ": p2 answers") [ "Grace" ]
        (names_of store o.Service.result.Vamana.Engine.keys))
    [ [ "nobody"; "p1" ]; [ "p1"; "nobody" ] ]

let test_bind_after_write () =
  let store, doc, service = binding_setup () in
  ignore (serve service doc "//person[@id='p1']/name");
  ignore (serve service doc "//person[@id='p3']/name");
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  let p3 = Store.insert_element store ~parent:people "person" [ ("id", "p3") ] None in
  ignore (Store.insert_element store ~parent:p3 "name" [] (Some "Hedy"));
  (* p3 now falls in p1's class: its plan is bound to p3 after the write *)
  let o = serve service doc "//person[@id='p3']/name" in
  Alcotest.(check bool) "re-bound, not re-prepared" true (o.Service.plan_cache = `Hit);
  Alcotest.(check (list string)) "post-write answer" [ "Hedy" ]
    (names_of store o.Service.result.Vamana.Engine.keys);
  (* and p1's own binding still answers p1 *)
  Alcotest.(check (list string)) "p1 unaffected" [ "Ada" ]
    (names_of store (serve service doc "//person[@id='p1']/name").Service.result.Vamana.Engine.keys)

let test_health_of_follows_class () =
  let store, doc, service = binding_setup () in
  let health_of q = Service.health_of service ~context:doc.Store.doc_key q in
  let q1 = "//person[@id='p1']/name" and q3 = "//person[@id='p3']/name" in
  Alcotest.(check bool) "no record before the first execution" true (health_of q1 = None);
  ignore (serve service doc q1);
  ignore (serve service doc q3);
  let record q = match health_of q with Some r -> r | None -> Alcotest.failf "no record for %s" q in
  let r1 = record q1 and r3 = record q3 in
  Alcotest.(check bool) "TC 1 and TC 0: two records" true (r1 != r3);
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  ignore (Store.insert_element store ~parent:people "person" [ ("id", "p3") ] None);
  (* p3 moved into p1's class: it maps to that class's record now, and
     the empty class keeps its own *)
  Alcotest.(check bool) "p3 now in p1's record" true (record q3 == r1);
  Alcotest.(check bool) "old class record kept" true
    (List.memq r3 (Vamana_service.Health.records (Service.health service)))

(* every served answer equals a fresh, uncached evaluation, whatever
   order literals arrive in: two-slot templates over present, absent and
   repeated values exercise classes, equality patterns and re-binding *)
let prop_bound_answers_match_fresh =
  let doc =
    "<r><a id='x'>y</a><a id='y'>x</a><a id='z'>z</a><b id='x'>x</b><a>y</a></r>"
  in
  let templates =
    [| "//a[@id='%s' or text()='%s']"; "//*[@id='%s'][text()='%s']";
       "//a[text()='%s']/following-sibling::*[@id='%s']" |]
  in
  let value = QCheck.Gen.oneofl [ "x"; "y"; "z"; "w" ] in
  let gen = QCheck.Gen.(list_size (int_range 1 30) (triple (int_bound 2) value value)) in
  QCheck.Test.make ~name:"bound answers match fresh evaluation" ~count:100
    (QCheck.make gen) (fun reqs ->
      let store = Store.create () in
      let d = Store.load_string store ~name:"p.xml" doc in
      let service = Service.create ~result_cache_capacity:0 store in
      List.for_all
        (fun (t, v1, v2) ->
          let q = Printf.sprintf (Scanf.format_from_string templates.(t) "%s%s") v1 v2 in
          let fresh =
            match Vamana.Engine.query_doc ~optimize:false store d q with
            | Ok r -> r.Vamana.Engine.keys
            | Error e -> failwith e
          in
          List.equal Flex.equal (keys_of service d q) fresh)
        reqs)

(* ---- the health table: one record per shape and class ---- *)

let adhoc_templates =
  [ "//person[@id='person%d']/name"; "//person[@id='person%d']/emailaddress";
    "//person[@id='person%d']/address/city"; "//province[text()='state%d']/ancestor::person";
    "//open_auction[@id='open_auction%d']/current";
    "//open_auction[@id='open_auction%d']/itemref/@item"; "//item[@id='item%d']/name";
    "//category[@id='category%d']/name" ]

let test_health_bounded_by_classes () =
  let store = Store.create () in
  let doc = Xmark.load ~seed:5L store 0.05 in
  let service = Service.create store in
  let keys = Hashtbl.create 64 in
  for k = 0 to 249 do
    List.iter
      (fun t ->
        let q = Printf.sprintf (Scanf.format_from_string t "%d") k in
        ignore (serve service doc q);
        let shape, slots = Service.shape q in
        let classes =
          Vamana.Engine.slot_classes store ~scope:(Some doc.Store.doc_key) slots
        in
        Hashtbl.replace keys (shape, classes) ())
      adhoc_templates
  done;
  let records = List.length (Vamana_service.Health.records (Service.health service)) in
  Alcotest.(check bool)
    (Printf.sprintf "%d records for %d (shape, class) keys" records (Hashtbl.length keys))
    true
    (records <= Hashtbl.length keys);
  Alcotest.(check bool) "2000 texts, a handful of classes" true (Hashtbl.length keys <= 40)

let test_health_capacity () =
  let _, doc, service = setup ~result_cache_capacity:0 () in
  let cap = Vamana_service.Health.capacity in
  for k = 1 to cap + 20 do
    (* numbers stay in the shape: every query is a new shape *)
    ignore (serve service doc (Printf.sprintf "//person[position() < %d]" k))
  done;
  Alcotest.(check int) "table stays at the cap" cap
    (List.length (Vamana_service.Health.records (Service.health service)))

(* ---- plan cache ---- *)

let test_plan_cache_hit () =
  let _, doc, service = setup () in
  let r1 = keys_of service doc "//person" in
  Alcotest.(check int) "two persons" 2 (List.length r1);
  Alcotest.(check int) "one compile" 1 (counter service "compiles");
  Alcotest.(check int) "miss recorded" 1 (counter service "plan_cache_misses");
  (* acceptance: a warm repeat must not compile again *)
  let r2 = keys_of service doc "//person" in
  Alcotest.(check int) "compile counter unchanged on repeat" 1 (counter service "compiles");
  Alcotest.(check bool) "same answer" true (List.for_all2 Flex.equal r1 r2)

let test_plan_cache_normalized_hit () =
  let _, doc, service = setup ~result_cache_capacity:0 () in
  ignore (keys_of service doc "//person/address");
  ignore (keys_of service doc "  //person  /  address ");
  Alcotest.(check int) "whitespace variants share one plan" 1 (counter service "compiles");
  Alcotest.(check int) "hit recorded" 1 (counter service "plan_cache_hits")

let test_plan_cache_skips_execution_path_only () =
  (* with the result cache off, a warm query still executes — only the
     front of the pipeline is skipped *)
  let _, doc, service = setup ~result_cache_capacity:0 () in
  ignore (keys_of service doc "//person");
  ignore (keys_of service doc "//person");
  let m = Service.metrics service in
  Alcotest.(check int) "compiled once" 1 (counter service "compiles");
  Alcotest.(check int) "executed twice" 2
    (match Metrics.histogram m "execute" with Some h -> H.count h | None -> 0)

let test_plan_cache_lru_eviction () =
  let _, doc, service = setup ~plan_cache_capacity:2 ~result_cache_capacity:0 () in
  ignore (keys_of service doc "//person");
  ignore (keys_of service doc "//name");
  ignore (keys_of service doc "//address");
  Alcotest.(check int) "eviction counted" 1 (counter service "plan_cache_evictions");
  Alcotest.(check int) "cache bounded" 2 (Service.plan_cache_length service);
  (* //person was LRU and must have been evicted: querying it recompiles *)
  ignore (keys_of service doc "//person");
  Alcotest.(check int) "evicted entry recompiles" 4 (counter service "compiles");
  (* //address stayed: no recompile *)
  ignore (keys_of service doc "//address");
  Alcotest.(check int) "resident entry reused" 4 (counter service "compiles")

let test_error_not_cached () =
  let _, doc, service = setup () in
  (match Service.query_doc service doc "///" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ());
  Alcotest.(check int) "error counted" 1 (counter service "errors");
  Alcotest.(check int) "nothing cached" 0 (Service.plan_cache_length service)

(* ---- result cache and epoch invalidation ---- *)

let test_result_cache_hit_skips_execution () =
  let _, doc, service = setup () in
  ignore (keys_of service doc "//person");
  let m = Service.metrics service in
  let executes () = match Metrics.histogram m "execute" with Some h -> H.count h | None -> 0 in
  let before = executes () in
  ignore (keys_of service doc "//person");
  Alcotest.(check int) "no execution on result-cache hit" before (executes ());
  Alcotest.(check int) "hit counted" 1 (counter service "result_cache_hits")

let test_result_cache_epoch_invalidation () =
  let store, doc, service = setup () in
  let before = keys_of service doc "//person" in
  Alcotest.(check int) "two persons before" 2 (List.length before);
  (* mutate the store between two identical queries *)
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  ignore (Store.insert_element store ~parent:people "person" [ ("id", "p3") ] (Some "Hedy"));
  let after = keys_of service doc "//person" in
  Alcotest.(check int) "fresh result, never stale" 3 (List.length after);
  Alcotest.(check int) "stale entry detected" 1 (counter service "result_cache_stale");
  (* plans survive updates; no recompile happened *)
  Alcotest.(check int) "plan cache unaffected by update" 1 (counter service "compiles");
  (* and the fresh answer is cached again under the new epoch *)
  ignore (keys_of service doc "//person");
  Alcotest.(check int) "re-cached under new epoch" 1 (counter service "result_cache_hits")

let test_result_cache_invalidated_by_delete () =
  let store, doc, service = setup () in
  let persons = keys_of service doc "//person" in
  ignore (Store.delete_subtree store (List.hd persons));
  Alcotest.(check int) "delete visible immediately" 1
    (List.length (keys_of service doc "//person"))

let test_result_cache_per_document_invalidation () =
  (* document-scoped entries are keyed to their own document's mutation
     epoch: a write to another document must not evict them *)
  let store = Store.create () in
  let da = Store.load_string store ~name:"a.xml" "<r><x/><x/></r>" in
  let db = Store.load_string store ~name:"b.xml" "<r><x/></r>" in
  let service = Service.create store in
  ignore (keys_of service da "//x");
  ignore (keys_of service da "//x");
  Alcotest.(check int) "warm" 1 (counter service "result_cache_hits");
  let root d =
    match Store.root_element_key d store with
    | Some k -> k
    | None -> Alcotest.fail "document has no root element"
  in
  ignore (Store.insert_element store ~parent:(root db) "x" [] None);
  (match Service.query_doc service da "//x" with
  | Ok o ->
      Alcotest.(check bool) "doc-A entry survives a write to doc B" true
        (o.Service.result_cache = `Hit)
  | Error e -> Alcotest.fail e);
  ignore (Store.insert_element store ~parent:(root da) "x" [] None);
  match Service.query_doc service da "//x" with
  | Ok o ->
      Alcotest.(check bool) "write to doc A invalidates" true
        (o.Service.result_cache = `Stale);
      Alcotest.(check int) "fresh answer" 3 (List.length o.Service.result.Vamana.Engine.keys)
  | Error e -> Alcotest.fail e

(* ---- footprint invalidation (the default protocol) ---- *)

let result_cache_of service doc q =
  match Service.query_doc service doc q with
  | Ok o -> o.Service.result_cache
  | Error e -> Alcotest.failf "query %s failed: %s" q e

let test_footprint_spares_non_interfering_write () =
  let store, doc, service = setup () in
  Alcotest.(check bool) "footprint is the default"
    true
    (Service.invalidation service = `Footprint);
  ignore (keys_of service doc "//person");
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  (* a tag the query's footprint never reads: provably non-interfering *)
  ignore (Store.insert_element store ~parent:people "pad" [] None);
  Alcotest.(check bool) "entry survives a disjoint write" true
    (result_cache_of service doc "//person" = `Hit);
  Alcotest.(check int) "spared counted" 1 (counter service "result_cache_spared");
  Alcotest.(check int) "no footprint eviction" 0
    (counter service "cache_invalidations_footprint");
  (* the interference check refreshed the token: the next lookup
     fast-paths without consulting deltas again *)
  Alcotest.(check bool) "token refreshed" true
    (result_cache_of service doc "//person" = `Hit);
  Alcotest.(check int) "no second interference check" 1
    (counter service "result_cache_spared");
  (* now a write the footprint does read *)
  ignore (Store.insert_element store ~parent:people "person" [ ("id", "p3") ] None);
  Alcotest.(check bool) "interfering write evicts" true
    (result_cache_of service doc "//person" = `Stale);
  Alcotest.(check int) "eviction attributed to footprint" 1
    (counter service "cache_invalidations_footprint")

let test_epoch_mode_evicts_on_any_write () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"t.xml" base_doc in
  let service = Service.create ~invalidation:`Epoch store in
  Alcotest.(check bool) "mode recorded" true (Service.invalidation service = `Epoch);
  ignore (keys_of service doc "//person");
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  ignore (Store.insert_element store ~parent:people "pad" [] None);
  Alcotest.(check bool) "disjoint write still evicts under epoch mode" true
    (result_cache_of service doc "//person" = `Stale);
  Alcotest.(check int) "eviction attributed to epoch" 1
    (counter service "cache_invalidations_epoch");
  Alcotest.(check int) "nothing spared" 0 (counter service "result_cache_spared")

(* a query whose footprint overflows the atom cap to ⊤ (65 distinct
   union branches) — the analysis can promise nothing about it *)
let top_query =
  String.concat "|" (List.init 65 (fun i -> Printf.sprintf "/child::t%d" i))

let test_unscoped_entries_across_documents () =
  (* two documents; unscoped queries (context = the store-wide document
     node) are keyed to the global epoch, so a write to ANY document
     triggers the interference check — and a ⊤ footprint must evict *)
  let store = Store.create () in
  let da = Store.load_string store ~name:"a.xml" "<r><x/><x/></r>" in
  let db = Store.load_string store ~name:"b.xml" "<r><y/></r>" in
  let service = Service.create store in
  let unscoped q =
    match Service.query service ~context:Flex.document q with
    | Ok o -> o
    | Error e -> Alcotest.failf "query %s failed: %s" q e
  in
  ignore (unscoped top_query);
  ignore (unscoped "/descendant::y");
  (* scoped doc-B entry rides along *)
  ignore (keys_of service db "//y");
  let root d =
    match Store.root_element_key d store with
    | Some k -> k
    | None -> Alcotest.fail "document has no root element"
  in
  (* write to doc A only *)
  ignore (Store.insert_element store ~parent:(root da) "x" [] None);
  (* doc B's scoped entry is untouched: its own document never mutated *)
  Alcotest.(check bool) "doc-B scoped entry survives a write to doc A" true
    (result_cache_of service db "//y" = `Hit);
  (* the unscoped ⊤ entry cannot be proven safe: evicted *)
  Alcotest.(check bool) "unscoped ⊤ entry evicted" true
    ((unscoped top_query).Service.result_cache = `Stale);
  Alcotest.(check int) "eviction attributed to ⊤" 1
    (counter service "cache_invalidations_top");
  (* the unscoped bounded entry reads only [y]: the doc-A write to [x]
     is provably disjoint even across documents *)
  Alcotest.(check bool) "unscoped bounded entry spared" true
    ((unscoped "/descendant::y").Service.result_cache = `Hit);
  Alcotest.(check int) "spared counted" 1 (counter service "result_cache_spared");
  (* but a write to doc B's [y] evicts it *)
  ignore (Store.insert_element store ~parent:(root db) "y" [] None);
  let o = unscoped "/descendant::y" in
  Alcotest.(check bool) "interfering write evicts the unscoped entry" true
    (o.Service.result_cache = `Stale);
  Alcotest.(check int) "fresh unscoped answer" 2
    (List.length o.Service.result.Vamana.Engine.keys)

let test_openmetrics_invalidation_family () =
  let store, doc, service = setup () in
  ignore (keys_of service doc "//person");
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  ignore (Store.insert_element store ~parent:people "person" [] None);
  ignore (keys_of service doc "//person");
  let om = Metrics.to_openmetrics (Service.metrics service) in
  Alcotest.(check bool) "labeled eviction family" true
    (contains ~needle:"vamana_cache_invalidations_total{reason=\"footprint\"} 1" om);
  Alcotest.(check bool) "single TYPE declaration for the family" true
    (contains ~needle:"# TYPE vamana_cache_invalidations counter" om);
  Alcotest.(check bool) "raw counter name not exported" false
    (contains ~needle:"vamana_cache_invalidations_footprint_total" om)

let test_slow_log_reuses_sampled_profile () =
  (* a slow query whose run was already sampled by the health profiler
     must not be re-executed just to attach an operator tree *)
  let store = Store.create () in
  let doc = Store.load_string store ~name:"t.xml" base_doc in
  let service =
    Service.create ~result_cache_capacity:0 ~slow_threshold:0.0 ~sample_every:1 store
  in
  ignore (keys_of service doc "//person");
  ignore (keys_of service doc "//person");
  let slow = Service.slow_queries service in
  Alcotest.(check int) "both runs logged" 2 (List.length slow);
  List.iter
    (fun (r : Service.record) ->
      Alcotest.(check bool) "operator tree attached" true (r.Service.r_profile <> None))
    slow

let test_slow_run_arms_next_sample () =
  (* a slow run that carried no profile is not executed a second time:
     its plan's next execution is sampled instead *)
  let store = Store.create () in
  let doc = Store.load_string store ~name:"t.xml" base_doc in
  let service =
    Service.create ~result_cache_capacity:0 ~slow_threshold:0.0 ~sample_every:1000 store
  in
  ignore (keys_of service doc "//person");
  Alcotest.(check int) "baseline sampled" 1 (counter service "sampled_executions");
  let keys_before = counter service "result_keys" in
  Store.reset_io_stats store;
  ignore (keys_of service doc "//person");
  Alcotest.(check int) "slow unsampled run executed once" (keys_before + 2)
    (counter service "result_keys");
  (match List.rev (Service.slow_queries service) with
  | r :: _ ->
      Alcotest.(check bool) "logged without an operator tree" true (r.Service.r_profile = None);
      (* a hidden second run would read pages outside the attribution *)
      Alcotest.(check int) "no page reads beyond the one run"
        r.Service.r_attribution.Vamana.Engine.attr_io.Storage.Stats.logical_reads
        (Store.io_stats store).Storage.Stats.logical_reads
  | [] -> Alcotest.fail "slow run not logged");
  Alcotest.(check int) "no sample yet" 1 (counter service "sampled_executions");
  ignore (keys_of service doc "//person");
  Alcotest.(check int) "next execution sampled" 2 (counter service "sampled_executions");
  match List.rev (Service.slow_queries service) with
  | r :: _ -> Alcotest.(check bool) "operator tree logged" true (r.Service.r_profile <> None)
  | [] -> Alcotest.fail "slow run not logged"

let test_counters_registered_up_front () =
  (* every counter a workload can bump exists from creation on, so a
     scrape never sees a family appear partway through a run *)
  let store = Store.create () in
  let doc = Store.load_string store ~name:"t.xml" base_doc in
  let service =
    Service.create ~plan_cache_capacity:1 ~result_cache_capacity:1 ~slow_threshold:0.0
      ~sample_every:1 store
  in
  let names () = List.map fst (Metrics.counters (Service.metrics service)) in
  let registered = names () in
  let q = "//person/address" in
  ignore (keys_of service doc "//name");
  (* evicts //name from both caches *)
  ignore (keys_of service doc q);
  (match Service.query_doc service doc "//person[" with
  | Ok _ -> Alcotest.fail "malformed query answered"
  | Error _ -> ());
  (* grow the person/address population 7x under the cached plan *)
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  for i = 1 to 12 do
    let p = Store.insert_element store ~parent:people "person" [ ("id", string_of_int i) ] None in
    ignore (Store.insert_element store ~parent:p "address" [] (Some "somewhere"))
  done;
  (* stale result, sampled run against stale estimates: drift *)
  ignore (keys_of service doc q);
  (* a profiled request executes, so the stale plan is re-prepared *)
  (match Service.query_doc ~profile:true service doc q with
  | Ok o -> Alcotest.(check bool) "replanned" true (o.Service.plan_cache = `Stale)
  | Error e -> Alcotest.fail e);
  Service.flush service;
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " bumped") true (counter service name > 0))
    [ "errors"; "result_cache_stale"; "plan_cache_evictions"; "result_cache_evictions";
      "plan_drift_events"; "adaptive_replans"; "slow_queries" ];
  Alcotest.(check (list string)) "no counter appears after creation" registered (names ())

let test_result_cache_per_context () =
  (* identical query text under two different documents must not share
     cached results *)
  let store = Store.create () in
  let d1 = Store.load_string store ~name:"a.xml" "<r><x/><x/></r>" in
  let d2 = Store.load_string store ~name:"b.xml" "<r><x/></r>" in
  let service = Service.create store in
  Alcotest.(check int) "doc1" 2 (List.length (keys_of service d1 "//x"));
  Alcotest.(check int) "doc2" 1 (List.length (keys_of service d2 "//x"));
  Alcotest.(check int) "no cross-document hit" 0 (counter service "result_cache_hits")

let test_flush () =
  let _, doc, service = setup () in
  ignore (keys_of service doc "//person");
  Service.flush service;
  Alcotest.(check int) "plan cache empty" 0 (Service.plan_cache_length service);
  Alcotest.(check int) "result cache empty" 0 (Service.result_cache_length service);
  ignore (keys_of service doc "//person");
  Alcotest.(check int) "recompiles after flush" 2 (counter service "compiles")

(* ---- store epoch ---- *)

let test_epoch_monotone () =
  let store = Store.create () in
  let e0 = Store.epoch store in
  let doc = Store.load_string store ~name:"t.xml" base_doc in
  let e1 = Store.epoch store in
  Alcotest.(check bool) "load bumps" true (e1 > e0);
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  let k = Store.insert_element store ~parent:people "person" [] None in
  let e2 = Store.epoch store in
  Alcotest.(check bool) "insert bumps" true (e2 > e1);
  ignore (Store.delete_subtree store k);
  let e3 = Store.epoch store in
  Alcotest.(check bool) "delete bumps" true (e3 > e2);
  ignore (Vamana.Engine.query store ~context:doc.Store.doc_key "//person");
  Alcotest.(check int) "queries do not bump" e3 (Store.epoch store)

(* ---- metrics registry ---- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.inc m "a";
  Metrics.inc ~by:4 m "a";
  Metrics.inc m "b";
  Alcotest.(check int) "counter sums" 5 (Metrics.counter m "a");
  Alcotest.(check int) "unknown counter is 0" 0 (Metrics.counter m "zzz");
  Alcotest.(check (list (pair string int))) "sorted listing" [ ("a", 5); ("b", 1) ]
    (Metrics.counters m);
  Metrics.observe m "lat" 0.001;
  Metrics.observe m "lat" 0.003;
  (match Metrics.histogram m "lat" with
  | Some h -> Alcotest.(check int) "histogram count" 2 (H.count h)
  | None -> Alcotest.fail "histogram missing");
  Alcotest.(check (option (float 1e-9))) "ratio" (Some (5. /. 6.))
    (Metrics.ratio m ~hits:"a" ~misses:"b");
  Alcotest.(check (option (float 1e-9))) "ratio of untouched counters" None
    (Metrics.ratio m ~hits:"no_hits" ~misses:"no_misses");
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.counter m "a")

let test_metrics_render () =
  let _, doc, service = setup () in
  ignore (keys_of service doc "//person");
  ignore (keys_of service doc "//person");
  let text = Service.snapshot_text service in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "text mentions %s" needle) true
        (contains ~needle text))
    [ "queries"; "plan_cache"; "result_cache"; "page I/O"; "logical_reads" ];
  let json = Service.snapshot_json service in
  Alcotest.(check bool) "json has counters" true (contains ~needle:"\"counters\"" json);
  Alcotest.(check bool) "json has io" true (contains ~needle:"\"io\"" json)

let test_metrics_json_escaping () =
  (* metric names are normally identifiers we mint, but the registry
     must not produce invalid JSON when handed hostile ones *)
  let m = Metrics.create () in
  Metrics.inc m {|quote"backslash\name|};
  Metrics.inc m "newline\nname";
  Metrics.inc m "control\x01\ttab";
  Metrics.observe m "formfeed\012\rreturn" 0.002;
  let json = Metrics.render_json m in
  match Vamana.Profile.Json.of_string json with
  | Error e -> Alcotest.fail ("render_json produced invalid JSON: " ^ e)
  | Ok v -> (
      match Vamana.Profile.Json.member "counters" v with
      | Some (Vamana.Profile.Json.Obj fields) ->
          Alcotest.(check bool) "hostile name survives round-trip" true
            (List.mem_assoc {|quote"backslash\name|} fields);
          Alcotest.(check bool) "newline name survives round-trip" true
            (List.mem_assoc "newline\nname" fields)
      | _ -> Alcotest.fail "counters object missing")

let test_profiled_query_bypasses_result_cache () =
  let _, doc, service = setup () in
  ignore (keys_of service doc "//person");
  ignore (keys_of service doc "//person");
  Alcotest.(check bool) "warm result cache" true (counter service "result_cache_hits" > 0);
  match Service.query_doc ~profile:true service doc "//person" with
  | Error e -> Alcotest.fail e
  | Ok o ->
      Alcotest.(check bool) "cache read bypassed" true (o.Service.result_cache = `Bypass);
      Alcotest.(check bool) "profile report present" true
        (o.Service.result.Vamana.Engine.profile <> None);
      (* 2: the health sampler profiled the plan's first execution (its
         baseline sample) and this explicit profile run is the second *)
      Alcotest.(check int) "profiled_queries counted" 2
        (counter service "profiled_queries")

(* ---- query_store error reporting ---- *)

let test_query_store_error_names_document () =
  let store = Store.create () in
  ignore (Store.load_string store ~name:"alpha.xml" "<r><x/></r>");
  ignore (Store.load_string store ~name:"beta.xml" "<r><y/></r>");
  (* a valid path query works across both documents *)
  (match Vamana.Engine.query_store store "//x" with
  | Ok rs -> Alcotest.(check int) "both documents queried" 2 (List.length rs)
  | Error e -> Alcotest.fail e);
  (* an unsupported expression fails naming the document it failed on *)
  match Vamana.Engine.query_store store "count(//x)" with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "error names document: %s" msg) true
        (contains ~needle:"alpha.xml" msg)

let suite =
  ( "service",
    [ Alcotest.test_case "lru basics" `Quick test_lru_basics;
      Alcotest.test_case "lru replace and remove" `Quick test_lru_replace_and_remove;
      Alcotest.test_case "lru order" `Quick test_lru_order;
      QCheck_alcotest.to_alcotest prop_lru_bounded;
      Alcotest.test_case "histogram" `Quick test_histogram;
      Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
      Alcotest.test_case "normalization" `Quick test_normalize;
      Alcotest.test_case "shape slot lifting" `Quick test_shape_lifting;
      Alcotest.test_case "unterminated literal keeps the parser error" `Quick
        test_unterminated_literal_error;
      Alcotest.test_case "two literals share one plan" `Quick test_bind_two_ids;
      Alcotest.test_case "empty and non-empty classes" `Quick
        test_bind_empty_and_nonempty_classes;
      Alcotest.test_case "re-bound plan after a write" `Quick test_bind_after_write;
      Alcotest.test_case "health_of follows the literal's class" `Quick
        test_health_of_follows_class;
      QCheck_alcotest.to_alcotest prop_bound_answers_match_fresh;
      Alcotest.test_case "health records bounded by classes" `Quick
        test_health_bounded_by_classes;
      Alcotest.test_case "health table capacity" `Quick test_health_capacity;
      Alcotest.test_case "plan cache hit skips compile" `Quick test_plan_cache_hit;
      Alcotest.test_case "normalized variants share plans" `Quick test_plan_cache_normalized_hit;
      Alcotest.test_case "warm plan still executes" `Quick test_plan_cache_skips_execution_path_only;
      Alcotest.test_case "plan cache LRU eviction" `Quick test_plan_cache_lru_eviction;
      Alcotest.test_case "errors are not cached" `Quick test_error_not_cached;
      Alcotest.test_case "result cache hit skips execution" `Quick test_result_cache_hit_skips_execution;
      Alcotest.test_case "epoch invalidation on insert" `Quick test_result_cache_epoch_invalidation;
      Alcotest.test_case "epoch invalidation on delete" `Quick test_result_cache_invalidated_by_delete;
      Alcotest.test_case "contexts do not share results" `Quick test_result_cache_per_context;
      Alcotest.test_case "per-document invalidation" `Quick
        test_result_cache_per_document_invalidation;
      Alcotest.test_case "footprint spares non-interfering write" `Quick
        test_footprint_spares_non_interfering_write;
      Alcotest.test_case "epoch mode evicts on any write" `Quick
        test_epoch_mode_evicts_on_any_write;
      Alcotest.test_case "unscoped entries across documents" `Quick
        test_unscoped_entries_across_documents;
      Alcotest.test_case "openmetrics invalidation family" `Quick
        test_openmetrics_invalidation_family;
      Alcotest.test_case "slow log reuses sampled profile" `Quick
        test_slow_log_reuses_sampled_profile;
      Alcotest.test_case "slow run arms the next sample" `Quick test_slow_run_arms_next_sample;
      Alcotest.test_case "counters registered up front" `Quick
        test_counters_registered_up_front;
      Alcotest.test_case "flush" `Quick test_flush;
      Alcotest.test_case "store epoch monotone" `Quick test_epoch_monotone;
      Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
      Alcotest.test_case "metrics rendering" `Quick test_metrics_render;
      Alcotest.test_case "metrics JSON escaping" `Quick test_metrics_json_escaping;
      Alcotest.test_case "profiled query bypasses result cache" `Quick
        test_profiled_query_bypasses_result_cache;
      Alcotest.test_case "query_store error names document" `Quick
        test_query_store_error_names_document ] )
