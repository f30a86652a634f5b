(* Tests for the small-scope bounded soundness prover: the committed
   configuration's coverage, a real-library sweep with zero
   counterexamples, the mutant catalogue (each seeded unsoundness caught,
   attributed to the right check, and shrunk within the documented
   bounds), caller-state isolation, and the S-expression / JSON
   round-trips behind [vamana prove]. *)

module SC = Vamana.Smallcheck
module J = Vamana.Profile.Json
module Store = Mass.Store
module Service = Vamana_service.Service

(* a cheaper configuration than the committed CI bounds — the mutants
   all fail within the first few hundred pairs, so the sweep
   short-circuits almost immediately *)
let small = { SC.default_bounds with SC.max_nodes = 3 }

let tiny =
  { SC.depth = 2; fanout = 1; tags = 1; texts = 1; max_nodes = 2; steps = 1 }

(* ---- committed coverage ---- *)

let test_enumeration_coverage () =
  let docs = List.length (SC.enum_documents SC.default_bounds) in
  let plans = List.length (SC.enum_queries SC.default_bounds) in
  (* the numbers EXPERIMENTS.md cites for the CI configuration *)
  Alcotest.(check int) "documents at CI bounds" 118 docs;
  Alcotest.(check int) "plans at CI bounds" 6175 plans;
  Alcotest.(check bool) "CI sweep is at least 10k pairs" true (docs * plans >= 10_000)

(* ---- the real library is sound on the bounded domain ---- *)

let test_real_library_sound () =
  let report = SC.prove ~random:50 small in
  Alcotest.(check (list string)) "no counterexamples" []
    (List.map (fun cx -> cx.SC.cx_detail) report.SC.rp_counterexamples);
  Alcotest.(check bool) "at least 10k pairs" true (report.SC.rp_pairs >= 10_000);
  Alcotest.(check int) "randomized layer ran" 50 report.SC.rp_random;
  Alcotest.(check bool) "rule sites exercised" true (report.SC.rp_sites > 0);
  (* the interference family ran at its own committed bounds *)
  Alcotest.(check bool) "at least 10k interference triples" true
    (report.SC.rp_triples >= 10_000);
  Alcotest.(check bool) "updates applied" true (report.SC.rp_updates > 0);
  (* the binding family ran at its own committed bounds *)
  Alcotest.(check bool) "literal bindings checked" true (report.SC.rp_bindings > 0)

(* ---- the interference family ---- *)

let test_interference_family_round_trips () =
  Alcotest.(check (option string)) "family slug round-trips" (Some "interference")
    (Option.map SC.family_to_string (SC.family_of_string "interference"));
  Alcotest.(check bool) "unknown slug rejected" true (SC.family_of_string "nope" = None);
  (* committed interference bounds: single-step queries, tiny documents *)
  Alcotest.(check int) "single-step queries" 1 SC.interference_bounds.SC.steps;
  Alcotest.(check bool) "tighter than the pair sweep" true
    (SC.interference_bounds.SC.max_nodes <= SC.default_bounds.SC.max_nodes)

let test_lying_footprint_attribution () =
  (* the seeded footprint mutant claims every plan reads nothing; the
     interference sweep must catch it and name the footprint check —
     and the real subject must pass the very same shrunk pair *)
  let m =
    match SC.find_mutant "lying-footprint" with
    | Some m -> m
    | None -> Alcotest.fail "lying-footprint mutant missing from the catalogue"
  in
  Alcotest.(check (option string)) "expected check" (Some "footprint-interference")
    (SC.subject_expected_check m);
  let report = SC.prove ~subject:m ~random:0 ~max_counterexamples:1 small in
  match report.SC.rp_counterexamples with
  | [ cx ] ->
      Alcotest.(check bool) "attributed to the interference family" true
        (cx.SC.cx_family = SC.Interference)
  | l -> Alcotest.failf "expected exactly 1 counterexample, got %d" (List.length l)

(* ---- the prover proves itself: every mutant caught and shrunk ---- *)

let check_mutant name () =
  let m =
    match SC.find_mutant name with
    | Some m -> m
    | None -> Alcotest.failf "unknown mutant %s" name
  in
  let report = SC.prove ~subject:m ~random:0 ~max_counterexamples:1 small in
  match report.SC.rp_counterexamples with
  | [ cx ] ->
      (* the counterexample names exactly the seeded unsoundness *)
      Alcotest.(check (option string)) (name ^ ": check slug")
        (SC.subject_expected_check m) (Some cx.SC.cx_check);
      Alcotest.(check (option string)) (name ^ ": rule")
        (SC.subject_expected_rule m) cx.SC.cx_rule;
      (* documented shrink bound: every catalogue entry minimizes to a
         document of ≤ 2 nodes and a plan of ≤ 2 steps *)
      Alcotest.(check bool) (name ^ ": doc within shrink bound") true
        (cx.SC.cx_doc_nodes <= 2);
      Alcotest.(check bool) (name ^ ": query within shrink bound") true
        (cx.SC.cx_query_steps <= 2);
      (* the shrunk pair still reproduces under a one-shot replay *)
      (match SC.check_pair ~subject:m ~doc:cx.SC.cx_doc ~query:cx.SC.cx_query () with
      | [ cx' ] ->
          Alcotest.(check string) (name ^ ": replay reproduces the check") cx.SC.cx_check
            cx'.SC.cx_check
      | l -> Alcotest.failf "%s: replay found %d counterexamples" name (List.length l));
      (* and the real library passes the same pair: the failure really is
         the mutant's *)
      Alcotest.(check int) (name ^ ": real library passes the pair") 0
        (List.length (SC.check_pair ~doc:cx.SC.cx_doc ~query:cx.SC.cx_query ()))
  | l -> Alcotest.failf "%s: expected exactly 1 counterexample, got %d" name (List.length l)

let mutant_cases =
  List.map
    (fun m ->
      let name = SC.subject_name m in
      Alcotest.test_case ("mutant " ^ name) `Quick (check_mutant name))
    SC.mutants

let test_mutant_catalogue_complete () =
  Alcotest.(check int) "seven seeded mutants" 7 (List.length SC.mutants);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (SC.subject_name m ^ " has an expected check")
        true
        (SC.subject_expected_check m <> None))
    SC.mutants

(* ---- caller-state isolation: prove builds its own world ---- *)

let test_caller_state_untouched () =
  let store, doc, service =
    let store = Store.create () in
    let doc = Store.load_string store ~name:"t.xml" "<site><a/><b/></site>" in
    (store, doc, Service.create store)
  in
  (match Service.query service ~context:doc.Store.doc_key "/child::site/child::a" with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let cache_before = Service.plan_cache_length service in
  let epoch_before = Store.epoch store in
  let docs_before = List.length (Store.documents store) in
  let report = SC.prove ~random:10 tiny in
  Alcotest.(check int) "prover found nothing" 0 (List.length report.SC.rp_counterexamples);
  Alcotest.(check int) "plan cache untouched" cache_before
    (Service.plan_cache_length service);
  Alcotest.(check int) "store epoch untouched" epoch_before (Store.epoch store);
  Alcotest.(check int) "document table untouched" docs_before
    (List.length (Store.documents store))

(* ---- replay S-expressions ---- *)

let first_mutant_cx () =
  let m = Option.get (SC.find_mutant "chain-off-by-one") in
  let report = SC.prove ~subject:m ~random:0 ~max_counterexamples:1 small in
  match report.SC.rp_counterexamples with
  | [ cx ] -> cx
  | _ -> Alcotest.fail "chain-off-by-one produced no counterexample"

let test_sexp_round_trip () =
  let cx = first_mutant_cx () in
  let sexp = SC.counterexample_to_sexp cx in
  match SC.replay_of_sexp sexp with
  | Error e -> Alcotest.fail e
  | Ok (doc, query, mutant) ->
      Alcotest.(check string) "doc survives the round trip" cx.SC.cx_doc doc;
      Alcotest.(check string) "query survives the round trip" cx.SC.cx_query query;
      (* the artifact does not pin a subject; the harness re-selects it *)
      Alcotest.(check (option string)) "no mutant field" None mutant

let test_sexp_hand_written () =
  match
    SC.replay_of_sexp
      "(replay (doc \"<a><a/></a>\") (query \"/descendant::a\") (mutant card-off-by-one))"
  with
  | Error e -> Alcotest.fail e
  | Ok (doc, query, mutant) ->
      Alcotest.(check string) "doc" "<a><a/></a>" doc;
      Alcotest.(check string) "query" "/descendant::a" query;
      Alcotest.(check (option string)) "mutant" (Some "card-off-by-one") mutant

let test_sexp_rejects_garbage () =
  (match SC.replay_of_sexp "not a sexp at all (" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match SC.replay_of_sexp "(replay (query \"/a\"))" with
  | Ok _ -> Alcotest.fail "accepted a replay without a document"
  | Error _ -> ()

(* ---- JSON: vamana prove --json shares the lint writer ---- *)

let test_report_json_round_trip () =
  let report = SC.prove ~random:5 tiny in
  let doc = SC.report_to_json report in
  let s = J.to_string doc in
  match J.of_string s with
  | Error e -> Alcotest.failf "report JSON does not reparse: %s" e
  | Ok doc' -> Alcotest.(check bool) "exact round trip" true (J.equal doc doc')

let test_counterexample_json () =
  let cx = first_mutant_cx () in
  let m = Option.get (SC.find_mutant "chain-off-by-one") in
  let report = SC.prove ~subject:m ~random:0 ~max_counterexamples:1 small in
  let s = J.to_string (SC.report_to_json report) in
  (match J.of_string s with
  | Error e -> Alcotest.failf "mutant report JSON does not reparse: %s" e
  | Ok _ -> ());
  Alcotest.(check bool) "JSON carries the check slug" true
    (let sub = "\"" ^ cx.SC.cx_check ^ "\"" in
     let n = String.length s and m = String.length sub in
     let rec find i = i + m <= n && (String.sub s i m = sub || find (i + 1)) in
     find 0)

let suite =
  ( "smallcheck",
    [ Alcotest.test_case "enumeration coverage" `Quick test_enumeration_coverage;
      Alcotest.test_case "real library sound on bounded domain" `Quick test_real_library_sound;
      Alcotest.test_case "interference family round trips" `Quick
        test_interference_family_round_trips;
      Alcotest.test_case "lying footprint attribution" `Quick
        test_lying_footprint_attribution;
      Alcotest.test_case "mutant catalogue complete" `Quick test_mutant_catalogue_complete ]
    @ mutant_cases
    @ [ Alcotest.test_case "caller state untouched" `Quick test_caller_state_untouched;
        Alcotest.test_case "sexp round trip" `Quick test_sexp_round_trip;
        Alcotest.test_case "sexp hand-written replay" `Quick test_sexp_hand_written;
        Alcotest.test_case "sexp rejects garbage" `Quick test_sexp_rejects_garbage;
        Alcotest.test_case "report JSON round trip" `Quick test_report_json_round_trip;
        Alcotest.test_case "counterexample JSON" `Quick test_counterexample_json ] )
