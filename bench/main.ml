(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§VIII).

     dune exec bench/main.exe                 -- everything, default sizes
     dune exec bench/main.exe -- fig12        -- one figure (fig12..fig16)
     dune exec bench/main.exe -- cost         -- Figures 6 and 7 (cost annotations)
     dune exec bench/main.exe -- opt          -- Figures 5, 8, 9, 11 (optimizer traces)
     dune exec bench/main.exe -- overhead     -- §VIII optimization-overhead claim
     dune exec bench/main.exe -- ablation     -- per-rewrite-rule contribution
     dune exec bench/main.exe -- io           -- page reads per engine -> BENCH_io.json (index-only
                                                property; exits 1 unless vqp-opt reads fewer than scan)
     dune exec bench/main.exe -- staleness    -- live statistics vs a frozen dictionary
     dune exec bench/main.exe -- service      -- warm-vs-cold cache latency (service layer)
     dune exec bench/main.exe -- drift        -- plan-health drift detection + replan recovery
     dune exec bench/main.exe -- interfere    -- result-cache invalidation: epoch vs footprint
     dune exec bench/main.exe -- qerror       -- est-vs-actual cardinality -> BENCH_qerror.json
     dune exec bench/main.exe -- micro        -- Bechamel micro-benchmarks
     dune exec bench/main.exe -- disk [--sizes ...]
                                              -- file backend, constrained pool (real I/O)
     dune exec bench/main.exe -- baseline     -- write BENCH_baseline.json (commit it)
     dune exec bench/main.exe -- regress [--baseline FILE] [--inject-latency F]
                                              -- gate this build against the baseline
     dune exec bench/main.exe -- all --sizes 1,5,10,20,30   -- full sweep

   Engines (stand-ins per DESIGN.md §4):
     scan    sequential-scan evaluator   (Galax)
     dom     DOM traversal, parse+build charged per query (Jaxen)
     join    structural path-join engine (eXist)
     vqp     VAMANA default plan
     vqp-opt VAMANA optimized plan

   Engine drop-outs mirror the paper: the DOM engine refuses documents
   above its node budget (Jaxen >= 10 MB), the join engine refuses
   documents above its record cap (eXist >= 20 MB) and has no sibling /
   following / preceding axes (no Q4 data points), and the scan engine is
   given a wall-clock budget per query (the paper's two-hour cutoff,
   scaled down). *)

module Store = Mass.Store

let queries =
  [ ("Q1", "//person/address");
    ("Q2", "//watches/watch/ancestor::person");
    ("Q3", "/descendant::name/parent::*/self::person/address");
    ("Q4", "//itemref/following-sibling::price/parent::*");
    ("Q5", "//province[text()='Vermont']/ancestor::person") ]

let figure_of_query = [ ("Q1", 12); ("Q2", 13); ("Q3", 14); ("Q4", 15); ("Q5", 16) ]

(* caps mirroring the paper's reported limits, in generated-document
   terms: ~13k records per generated MB *)
let dom_node_budget = 130_000 (* Jaxen: fails >= 10 MB *)
let join_record_cap = 260_000 (* eXist: fails >= 20 MB *)
let scan_time_budget = 120.0 (* seconds; the paper's 2 h cutoff, scaled *)

type sized = {
  mb : float;
  store : Store.t;
  doc : Store.doc;
  source : string;
}

(* every corpus query must lint clean of Error-severity (structural)
   diagnostics on the document it is about to be measured on — a
   malformed plan would make the numbers meaningless *)
let assert_lint_clean store (doc : Store.doc) =
  List.iter
    (fun (label, q) ->
      match Vamana.Engine.prepare store ~scope:(Some doc.Store.doc_key) q with
      | Error e -> failwith (label ^ ": " ^ e)
      | Ok p ->
          List.iter
            (fun plan ->
              match Vamana.Analysis.structural_diagnostics plan with
              | [] -> ()
              | d :: _ ->
                  failwith
                    (Printf.sprintf "%s: lint error: %s" label
                       (Vamana.Analysis.diagnostic_to_string d)))
            p.Vamana.Engine.executed_plans)
    queries

let build_sized mb =
  let store = Store.create ~pool_pages:65536 () in
  let tree = Xmark.generate mb in
  let doc = Store.load store ~name:"auction.xml" tree in
  assert_lint_clean store doc;
  { mb; store; doc; source = Xml.Writer.to_string tree }

(* very fast runs are repeated for a stable reading *)
let measure f =
  let r, t = Obs.time f in
  if t >= 0.05 then (r, t)
  else begin
    let n = 9 in
    let _, total =
      Obs.time (fun () ->
          for _ = 1 to n do
            ignore (f ())
          done)
    in
    (r, (t +. total) /. float_of_int (n + 1))
  end

type cell = Time of float | Dnf of string

let pp_cell = function
  | Time t -> Printf.sprintf "%10.3f" t
  | Dnf reason -> Printf.sprintf "%10s" ("DNF:" ^ reason)

(* ---- engine runners ---- *)

let run_scan sized query =
  let scan = Baselines.Scan_engine.create sized.store sized.doc in
  let deadline = Obs.clock () +. scan_time_budget in
  let result, t = Obs.time (fun () -> Baselines.Scan_engine.query_ranks scan query) in
  match result with
  | Ok _ when Obs.clock () <= deadline -> Time t
  | Ok _ -> Dnf "time"
  | Error _ -> Dnf "unsup"

let run_dom sized query =
  (* a file-based DOM engine pays parse + DOM build on every query *)
  match
    measure (fun () ->
        let d =
          Baselines.Dom_engine.create ~node_budget:dom_node_budget
            (Xml.Parser.parse sized.source)
        in
        Baselines.Dom_engine.query_ranks d query)
  with
  | Ok _, t -> Time t
  | Error _, _ -> Dnf "unsup"
  | exception Baselines.Dom_engine.Document_too_large _ -> Dnf "mem"

let run_join sized query =
  match Baselines.Join_engine.create ~record_cap:join_record_cap sized.store sized.doc with
  | exception Baselines.Join_engine.Document_too_large _ -> Dnf "size"
  | join -> (
      match measure (fun () -> Baselines.Join_engine.query_ranks join query) with
      | Ok _, t -> Time t
      | Error _, _ -> Dnf "axis")

let run_vamana ~optimize sized query =
  match
    measure (fun () ->
        Vamana.Engine.query ~optimize sized.store ~context:sized.doc.Store.doc_key query)
  with
  | Ok _, t -> Time t
  | Error e, _ -> Dnf e

let engines =
  [ ("scan", run_scan); ("dom", run_dom); ("join", run_join);
    ("vqp", run_vamana ~optimize:false); ("vqp-opt", run_vamana ~optimize:true) ]

let engine_index name =
  let rec go i = function
    | (n, _) :: rest -> if String.equal n name then i else go (i + 1) rest
    | [] -> invalid_arg name
  in
  go 0 engines

(* ---- figures 12-16 ---- *)

let print_figure sizeds (label, query) =
  let fig = List.assoc label figure_of_query in
  Printf.printf "\n== Figure %d: %s  %s — execution time (seconds) ==\n" fig label query;
  Printf.printf "%8s" "size(MB)";
  List.iter (fun (name, _) -> Printf.printf "%11s" name) engines;
  print_newline ();
  let rows =
    List.map
      (fun sized ->
        let cells = List.map (fun (_, runner) -> runner sized query) engines in
        Printf.printf "%8.0f" sized.mb;
        List.iter (fun c -> Printf.printf " %s" (pp_cell c)) cells;
        print_newline ();
        (sized.mb, cells))
      sizeds
  in
  (* shape checks against the paper *)
  let get name cells = List.nth cells (engine_index name) in
  let problems = ref [] in
  List.iter
    (fun (mb, cells) ->
      (match (get "vqp" cells, get "vqp-opt" cells) with
      | Time a, Time b when b > a +. 1e-4 ->
          problems := Printf.sprintf "%.0fMB: VQP-OPT slower than VQP" mb :: !problems
      | _ -> ());
      match (get "vqp-opt" cells, get "scan" cells, get "dom" cells) with
      | Time v, Time s, Time d when v > s || v > d ->
          problems := Printf.sprintf "%.0fMB: VAMANA-OPT not fastest" mb :: !problems
      | _ -> ())
    rows;
  if label = "Q4" then begin
    let all_dnf =
      List.for_all
        (fun (_, cells) -> match get "join" cells with Dnf _ -> true | Time _ -> false)
        rows
    in
    if not all_dnf then
      problems := "Q4: join engine unexpectedly ran a sibling axis" :: !problems
  end;
  match !problems with
  | [] ->
      Printf.printf "   [shape OK: VQP-OPT <= VQP; index plans fastest%s]\n"
        (if label = "Q4" then "; join engine DNF on sibling axis as in the paper" else "")
  | ps -> List.iter (Printf.printf "   [shape WARNING: %s]\n") ps

(* ---- cost figures (6 and 7) ---- *)

let print_cost () =
  Printf.printf "\n== Figures 6 & 7: cost annotations on the 10 MB document ==\n";
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store 10.0 in
  let count n = Store.count_test store ~principal:Mass.Record.Element (Xpath.Ast.Name_test n) in
  Printf.printf "paper: COUNT(name)=4825 COUNT(person)=2550 COUNT(address)=1256 TC('Yung Flach')=1\n";
  Printf.printf "ours : COUNT(name)=%d COUNT(person)=%d COUNT(address)=%d TC('Yung Flach')=%d\n\n"
    (count "name") (count "person") (count "address")
    (Store.text_value_count store "Yung Flach");
  List.iter
    (fun (fig, q) ->
      Printf.printf "-- %s --\nQuery: %s\n" fig q;
      match Vamana.Engine.explain store doc q with
      | Ok text -> print_string text
      | Error e -> Printf.printf "error: %s\n" e)
    [ ("Figure 6 (running example Q1)", "descendant::name/parent::*/self::person/address");
      ("Figure 7 (running example Q2)",
       "//name[text()='Yung Flach']/following-sibling::emailaddress") ]

(* ---- optimizer traces (figures 5, 8, 9, 11) ---- *)

let print_opt () =
  Printf.printf "\n== Figures 5, 8, 9, 11: optimizer transformations (10 MB document) ==\n";
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store 10.0 in
  List.iter
    (fun (what, q) ->
      Printf.printf "\n-- %s --\nQuery: %s\n" what q;
      match Vamana.Engine.explain store doc q with
      | Ok text -> print_string text
      | Error e -> Printf.printf "error: %s\n" e)
    [ ("Figures 5+8+11: clean-up, reverse-axis elimination, push-down",
       "descendant::name/parent::*/self::person/address");
      ("Figure 9: value-index rewrite",
       "//name[text()='Yung Flach']/following-sibling::emailaddress");
      ("§VIII Q2: duplicate elimination", "//watches/watch/ancestor::person") ]

(* ---- optimization overhead (§VIII: "negligible") ---- *)

let print_overhead () =
  Printf.printf "\n== Optimization overhead on the 10 MB document (paper §VIII) ==\n";
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store 10.0 in
  Printf.printf "%-4s %12s %14s %14s %10s %10s\n" "Q" "opt(ms)" "exec VQP(ms)" "exec OPT(ms)"
    "speedup" "ovh(%)";
  List.iter
    (fun (label, q) ->
      let run optimize =
        match Vamana.Engine.query ~optimize store ~context:doc.Store.doc_key q with
        | Ok r -> r
        | Error e -> failwith e
      in
      let d = run false and o = run true in
      let speedup = d.Vamana.Engine.execute_time /. Float.max o.Vamana.Engine.execute_time 1e-9 in
      let overhead =
        100. *. o.Vamana.Engine.optimize_time /. Float.max d.Vamana.Engine.execute_time 1e-9
      in
      Printf.printf "%-4s %12.3f %14.2f %14.2f %9.1fx %10.2f\n" label
        (o.Vamana.Engine.optimize_time *. 1000.)
        (d.Vamana.Engine.execute_time *. 1000.)
        (o.Vamana.Engine.execute_time *. 1000.)
        speedup overhead)
    queries;
  Printf.printf "(overhead = optimizer time as %% of default-plan execution time)\n"


(* ---- ablation: contribution of each transformation rule ---- *)

let print_ablation () =
  Printf.printf "\n== Ablation: optimizer with one rule disabled (10 MB, exec ms) ==\n";
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store 10.0 in
  let variants =
    ("full library", Vamana.Rewrite.cost_rules)
    :: ("no rewriting", [])
    :: List.map
         (fun (r : Vamana.Rewrite.rule) ->
           ( "without " ^ r.Vamana.Rewrite.name,
             List.filter
               (fun (r' : Vamana.Rewrite.rule) ->
                 r'.Vamana.Rewrite.name <> r.Vamana.Rewrite.name)
               Vamana.Rewrite.cost_rules ))
         Vamana.Rewrite.cost_rules
  in
  Printf.printf "%-26s" "variant";
  List.iter (fun (l, _) -> Printf.printf "%10s" l) queries;
  print_newline ();
  List.iter
    (fun (vname, rules) ->
      Printf.printf "%-26s" vname;
      List.iter
        (fun (_, q) ->
          let plan =
            match Vamana.Compile.compile_query q with Ok p -> p | Error e -> failwith e
          in
          let o = Vamana.Optimizer.optimize ~rules store ~scope:(Some doc.Store.doc_key) plan in
          let _, t =
            measure (fun () -> Vamana.Exec.run store ~context:doc.Store.doc_key o.Vamana.Optimizer.plan)
          in
          Printf.printf "%10.2f" (t *. 1000.))
        queries;
      print_newline ())
    variants;
  Printf.printf "(each cell: execution time of the plan produced by that rule set)\n"

(* ---- page I/O: the index-only property, quantified ---- *)

let io_file = "BENCH_io.json"

let print_io () =
  Printf.printf "\n== Page reads per engine on the 10 MB document (logical reads) ==\n";
  let sized = build_sized 10.0 in
  let total = Store.total_records sized.store in
  Printf.printf "store: %d records, %d pages\n" total
    ((Store.statistics sized.store).Store.doc_index_pages);
  Printf.printf "%-4s %12s %12s %12s %12s\n" "Q" "scan" "join" "vqp" "vqp-opt";
  let module J = Vamana.Profile.Json in
  let rows =
    List.map
      (fun (label, q) ->
        let reads f =
          Store.reset_io_stats sized.store;
          match f () with
          | Ok _ -> Some (Store.io_stats sized.store).Storage.Stats.logical_reads
          | Error _ -> None
        in
        let cell = function Some n -> string_of_int n | None -> "DNF" in
        let scan_reads =
          reads (fun () ->
              Baselines.Scan_engine.query_ranks (Baselines.Scan_engine.create sized.store sized.doc) q)
        in
        let join_reads =
          reads (fun () ->
              Baselines.Join_engine.query_ranks
                (Baselines.Join_engine.create ~record_cap:max_int sized.store sized.doc)
                q)
        in
        let vqp_reads =
          reads (fun () -> Vamana.Engine.query ~optimize:false sized.store ~context:sized.doc.Store.doc_key q)
        in
        let opt_reads =
          reads (fun () -> Vamana.Engine.query ~optimize:true sized.store ~context:sized.doc.Store.doc_key q)
        in
        Printf.printf "%-4s %12s %12s %12s %12s\n" label (cell scan_reads) (cell join_reads)
          (cell vqp_reads) (cell opt_reads);
        let num = function Some n -> J.Int n | None -> J.Null in
        let json =
          J.Obj
            [ ("label", J.Str label); ("query", J.Str q); ("scan", num scan_reads);
              ("join", num join_reads); ("vqp", num vqp_reads); ("vqp_opt", num opt_reads) ]
        in
        let violation =
          match (opt_reads, scan_reads) with
          | Some o, Some s when o < s -> None
          | _ -> Some label
        in
        (json, violation))
      queries
  in
  let violations = List.filter_map snd rows in
  Printf.printf
    "(optimized index-only plans touch a small fraction of the pages a scan reads)\n";
  (* the trajectory: CI compares vqp-opt against the committed copy *)
  let oc = open_out io_file in
  output_string oc
    (J.to_string (J.Obj [ ("document_mb", J.Float 10.0); ("queries", J.Arr (List.map fst rows)) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote %s)\n" io_file;
  (* the index-only headline is a gate: vqp-opt must read fewer pages than
     the scan engine on every query *)
  if violations <> [] then begin
    Printf.printf "FAIL: vqp-opt does not read fewer pages than scan on %s\n"
      (String.concat ", " violations);
    exit 1
  end

(* ---- durable backend: the scalability sweep when eviction costs file I/O ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let disk_pools = [ 512; 65536 ]

let print_disk sizes =
  Printf.printf "\n== Durable file backend: corpus batch with a constrained buffer pool ==\n";
  Printf.printf
    "(each size is bulk-loaded to disk once, then reopened cold per pool setting;\n\
    \ a %d-page pool is smaller than the clustered index beyond ~1 MB, so misses pay\n\
    \ real pread()s and evictions write dirty pages back)\n"
    (List.hd disk_pools);
  Printf.printf "%6s %9s | %6s %10s %10s %10s %6s | %10s %12s\n" "MB" "records" "pool"
    "batch(ms)" "logical" "physical" "hit" "preads" "read bytes";
  List.iter
    (fun mb ->
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "vamana_bench_disk_%d" (Unix.getpid ()))
      in
      rm_rf dir;
      let store = Store.create ~pool_pages:65536 ~backend:(Store.File { dir }) () in
      let records =
        let tree = Xmark.generate mb in
        ignore (Store.load store ~name:"auction.xml" tree);
        Store.total_records store
      in
      Store.close store;
      List.iter
        (fun pool ->
          let store = Store.open_file ~pool_pages:pool ~dir () in
          let doc = match Store.documents store with d :: _ -> d | [] -> assert false in
          let io0 =
            match Store.disk_io store with
            | Some io -> (io.Storage.Disk.data_reads, io.Storage.Disk.data_read_bytes)
            | None -> (0, 0)
          in
          Store.reset_io_stats store;
          let _, t =
            Obs.time (fun () ->
                List.iter
                  (fun (label, q) ->
                    match
                      Vamana.Engine.query ~optimize:true store ~context:doc.Store.doc_key q
                    with
                    | Ok r -> ignore r.Vamana.Engine.keys
                    | Error e -> failwith (label ^ ": " ^ e))
                  queries)
          in
          let io = Store.io_stats store in
          let preads, pread_bytes =
            match Store.disk_io store with
            | Some d -> (d.Storage.Disk.data_reads - fst io0, d.Storage.Disk.data_read_bytes - snd io0)
            | None -> (0, 0)
          in
          Printf.printf "%6.1f %9d | %6d %10.2f %10d %10d %5.1f%% | %10d %12d\n" mb records
            pool (t *. 1000.) io.Storage.Stats.logical_reads io.Storage.Stats.physical_reads
            (100. *. Storage.Stats.hit_ratio io) preads pread_bytes;
          Store.close store)
        disk_pools;
      rm_rf dir)
    sizes

(* ---- staleness study: live index statistics vs a frozen dictionary ---- *)

let print_staleness () =
  Printf.printf "\n== Staleness: live index statistics vs a frozen dictionary (paper §I/§II) ==\n";
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store 2.0 in
  let frozen = Vamana.Frozen_stats.capture store in
  Printf.printf "captured dictionary: %d names, %d values\n"
    (Vamana.Frozen_stats.distinct_names frozen)
    (Vamana.Frozen_stats.distinct_values frozen);
  (* update workload: a Vermont population boom, and every watch removed *)
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> failwith e
  in
  let boom = 2000 in
  for i = 1 to boom do
    let p =
      Store.insert_element store ~parent:people "person"
        [ ("id", Printf.sprintf "newcomer%d" i) ] None
    in
    let a = Store.insert_element store ~parent:p "address" [] None in
    ignore (Store.insert_element store ~parent:a "province" [] (Some "Vermont"))
  done;
  (match Vamana.Engine.query_doc store doc "//watches" with
  | Ok r -> List.iter (fun k -> ignore (Store.delete_subtree store k)) r.Vamana.Engine.keys
  | Error e -> failwith e);
  Printf.printf "applied updates: +%d Vermont persons, all watches deleted\n\n" boom;
  let live = Vamana.Cost.live_statistics store in
  let stale = Vamana.Frozen_stats.source frozen in
  let scope = Some doc.Store.doc_key in
  Printf.printf "%-44s %10s %10s %10s\n" "query" "stale est" "live est" "actual";
  List.iter
    (fun q ->
      match Vamana.Compile.compile_query q with
      | Error e -> failwith e
      | Ok plan ->
          let plan = Vamana.Rewrite.apply_cleanup plan in
          let est stats =
            let costed = Vamana.Cost.estimate_with stats ~scope plan in
            (Hashtbl.find costed plan.Vamana.Plan.id).Vamana.Cost.output
          in
          let actual =
            List.length (Vamana.Exec.run store ~context:doc.Store.doc_key plan)
          in
          Printf.printf "%-44s %10d %10d %10d\n" q (est stale) (est live) actual)
    [ "//province[text()='Vermont']"; "//watches/watch"; "//person"; "//address" ];
  Printf.printf
    "(the live source tracks every update exactly; the dictionary keeps\n\
    \ pre-update numbers, the failure mode the paper's costing avoids)\n"

(* ---- service layer: warm-vs-cold cache latency ---- *)

let print_service () =
  Printf.printf "\n== Service layer: warm vs cold cache latency (10 MB, XMark query set) ==\n";
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store 10.0 in
  let service = Vamana_service.Service.create store in
  let run q =
    match Vamana_service.Service.query service ~context:doc.Store.doc_key q with
    | Ok o -> o
    | Error e -> failwith e
  in
  let warm_rounds = 25 in
  Printf.printf "%-4s %12s %14s %14s %10s %10s\n" "Q" "cold(ms)" "warm plan(ms)" "warm full(ms)"
    "plan x" "full x";
  List.iter
    (fun (label, q) ->
      (* cold: first touch pays parse+compile+optimize+execute *)
      let cold = run q in
      let cold_ms = cold.Vamana_service.Service.total_time *. 1000. in
      (* warm plan cache only: re-execute the cached plan each round by
         disabling result reuse through a store-epoch-preserving flush of
         the result side — simplest is a second service without results *)
      let plan_service =
        Vamana_service.Service.create ~result_cache_capacity:0 store
      in
      let run_plan () =
        match Vamana_service.Service.query plan_service ~context:doc.Store.doc_key q with
        | Ok o -> o.Vamana_service.Service.total_time
        | Error e -> failwith e
      in
      let _cold_plan = run_plan () in
      let warm_plan =
        let total = ref 0.0 in
        for _ = 1 to warm_rounds do
          total := !total +. run_plan ()
        done;
        !total /. float_of_int warm_rounds *. 1000.
      in
      (* warm result cache: repeat through the full service *)
      let warm_full =
        let total = ref 0.0 in
        for _ = 1 to warm_rounds do
          total := !total +. (run q).Vamana_service.Service.total_time
        done;
        !total /. float_of_int warm_rounds *. 1000.
      in
      Printf.printf "%-4s %12.3f %14.3f %14.3f %9.1fx %9.1fx\n" label cold_ms warm_plan
        warm_full
        (cold_ms /. Float.max warm_plan 1e-6)
        (cold_ms /. Float.max warm_full 1e-6))
    queries;
  Printf.printf "(plan x: plan cache only — execution still runs; full x: result cache hit)\n";
  Printf.printf "\n%s" (Vamana_service.Service.snapshot_text service)

(* ---- interfere: result-cache invalidation policy under churn ---- *)

let print_interfere () =
  Printf.printf
    "\n== Result-cache invalidation under churn: doc-epoch vs footprint (2 MB) ==\n";
  let run_mode invalidation =
    let store = Store.create ~pool_pages:65536 () in
    let doc = Xmark.load store 2.0 in
    let service = Vamana_service.Service.create ~invalidation store in
    let elem q =
      match Vamana.Engine.query_doc store doc q with
      | Ok r -> List.hd r.Vamana.Engine.keys
      | Error e -> failwith e
    in
    let regions = elem "/site/regions" and people = elem "/site/people" in
    let hits = ref 0 and total = ref 0 in
    let run q =
      match Vamana_service.Service.query service ~context:doc.Store.doc_key q with
      | Ok o -> (
          incr total;
          match o.Vamana_service.Service.result_cache with
          | `Hit -> incr hits
          | `Miss | `Stale | `Bypass -> ())
      | Error e -> failwith e
    in
    let qs = List.map snd queries in
    (* cold fill, then measure only the churned warm rounds *)
    List.iter run qs;
    hits := 0;
    total := 0;
    let rounds = 40 in
    for i = 1 to rounds do
      (* every round inserts an element no corpus query reads; every 8th
         also inserts a person, which several query footprints do read *)
      ignore (Store.insert_element store ~parent:regions "pad" [] None);
      if i mod 8 = 0 then
        ignore
          (Store.insert_element store ~parent:people "person"
             [ ("id", Printf.sprintf "churn%d" i) ]
             None);
      List.iter run qs
    done;
    let m = Vamana_service.Service.metrics service in
    let c = Vamana_service.Metrics.counter m in
    ( !hits,
      !total,
      c "result_cache_spared",
      c "cache_invalidations_footprint",
      c "cache_invalidations_epoch",
      c "cache_invalidations_top" )
  in
  let rate (h, t, _, _, _, _) = float_of_int h /. float_of_int t in
  let report name ((hits, total, spared, inv_fp, inv_ep, inv_top) as r) =
    Printf.printf
      "%-10s %4d/%d warm hits (%4.1f%%)   spared %3d   evicted: footprint %d, epoch %d, \
       top %d\n"
      name hits total
      (100. *. rate r)
      spared inv_fp inv_ep inv_top
  in
  let epoch = run_mode `Epoch in
  let fp = run_mode `Footprint in
  report "epoch" epoch;
  report "footprint" fp;
  Printf.printf
    "(single-document churn; footprint invalidation %s the doc-epoch hit rate)\n"
    (if rate fp > rate epoch then "beats" else "does NOT beat");
  rate fp > rate epoch

(* ---- drift: plan-health detection latency and post-replan recovery ---- *)

let print_drift () =
  Printf.printf
    "\n== Plan-health drift: detection latency and post-replan recovery (2 MB, sample 1/4) ==\n";
  let module H = Vamana_service.Health in
  let module Svc = Vamana_service.Service in
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store 2.0 in
  let sample_every = 4 in
  (* result cache off: a served answer would hide the drifting plan *)
  let service = Svc.create ~result_cache_capacity:0 ~sample_every store in
  let run q =
    match Svc.query service ~context:doc.Store.doc_key q with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  (* the record of the plan serving [q] now: a write that moves a
     literal into another selectivity class hands the query to a fresh
     plan (and record) of the new class *)
  let record q =
    match Svc.health_of service ~context:doc.Store.doc_key q with
    | Some r -> r
    | None -> failwith ("no health record for " ^ q)
  in
  let last_q r =
    match List.rev (H.samples r) with s :: _ -> s.H.s_max_q | [] -> 1.0
  in
  (* warm phase: every plan cached and sampled against honest statistics *)
  let warm_rounds = 8 in
  for _ = 1 to warm_rounds do
    List.iter (fun (_, q) -> run q) queries
  done;
  let before = List.map (fun (l, q) -> (l, record q)) queries in
  let base = List.map (fun (l, r) -> (l, last_q r)) before in
  (* churn burst mid-serve: the staleness study's update workload — a
     Vermont population boom, and every watch deleted *)
  let people =
    match Vamana.Engine.query_doc store doc "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> failwith e
  in
  let boom = 2000 in
  for i = 1 to boom do
    let p =
      Store.insert_element store ~parent:people "person"
        [ ("id", Printf.sprintf "newcomer%d" i) ] None
    in
    let a = Store.insert_element store ~parent:p "address" [] None in
    ignore (Store.insert_element store ~parent:a "province" [] (Some "Vermont"))
  done;
  (match Vamana.Engine.query_doc store doc "//watches" with
  | Ok r -> List.iter (fun k -> ignore (Store.delete_subtree store k)) r.Vamana.Engine.keys
  | Error e -> failwith e);
  Printf.printf "churn: +%d Vermont persons, all watches deleted (epoch %d)\n" boom
    (Store.epoch store);
  (* keep serving; per plan, count executions from the churn burst to the
     drift event and to the transparent replan *)
  let churn_epoch = Store.epoch store in
  let execs_at_churn = List.map (fun (l, r) -> (l, r.H.hr_executions)) before in
  let detect = ref [] and replan = ref [] in
  let note tbl l v = if not (List.mem_assoc l !tbl) then tbl := (l, v) :: !tbl in
  let max_rounds = 32 in
  for _round = 1 to max_rounds do
    List.iter
      (fun (l, q) ->
        run q;
        let r = record q in
        let since =
          if r == List.assoc l before then r.H.hr_executions - List.assoc l execs_at_churn
          else r.H.hr_executions
        in
        if r.H.hr_stale || r.H.hr_replans > 0 then note detect l since;
        if r.H.hr_replans > 0 then note replan l since)
      queries
  done;
  let peak r =
    List.fold_left
      (fun acc (s : H.sample) ->
        if s.H.s_epoch >= churn_epoch then Float.max acc s.H.s_max_q else acc)
      1.0 (H.samples r)
  in
  Printf.printf
    "%-4s %-44s %8s %8s %12s %12s %8s %s\n" "Q" "query" "base q" "peak q" "detect(exec)"
    "replan(exec)" "post q" "recovered";
  List.iter
    (fun (l, q) ->
      let r = record q in
      let post = last_q r in
      let reclassed = r != List.assoc l before in
      let fmt_q v = if v >= 100.0 then Printf.sprintf "%8.0f" v else Printf.sprintf "%8.2f" v in
      Printf.printf "%-4s %-44s %s %s %12s %12s %s %s\n" l q
        (fmt_q (List.assoc l base))
        (fmt_q (peak r))
        (match List.assoc_opt l !detect with Some n -> string_of_int n | None -> "-")
        (match List.assoc_opt l !replan with Some n -> string_of_int n | None -> "-")
        (fmt_q post)
        (if r.H.hr_replans > 0 && post <= 1.5 then "yes"
         else if r.H.hr_replans > 0 then "partial"
         else if reclassed then "new class"
         else "n/a"))
    queries;
  let m = Svc.metrics service in
  Printf.printf
    "(sampled %d of %d executions; %d drift events, %d adaptive replans;\n\
    \ detect/replan: plan executions between the churn burst and the event;\n\
    \ new class: the burst moved a literal's TC class, so a fresh plan serves it)\n"
    (Vamana_service.Metrics.counter m "sampled_executions")
    (Vamana_service.Metrics.counter m "queries")
    (Vamana_service.Metrics.counter m "plan_drift_events")
    (Vamana_service.Metrics.counter m "adaptive_replans")

(* ---- cost-model drift: estimated vs actual cardinality per query ---- *)

let qerror_file = "BENCH_qerror.json"

let print_qerror () =
  let mb = 2.0 in
  Printf.printf "\n== Cost-model q-error: estimated vs actual cardinality (%.0f MB) ==\n" mb;
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store mb in
  Printf.printf "%-4s %-44s %10s %10s %8s %10s\n" "Q" "query" "est OUT" "actual" "q-err" "max op q";
  let module J = Vamana.Profile.Json in
  let rows =
    List.map
      (fun (label, q) ->
        match Vamana.Engine.query ~profile:true store ~context:doc.Store.doc_key q with
        | Error e -> failwith (label ^ ": " ^ e)
        | Ok r ->
            let rep = Option.get r.Vamana.Engine.profile in
            let est =
              match rep.Vamana.Profile.plan.Vamana.Profile.est with
              | Some s -> s.Vamana.Cost.output
              | None -> 0
            in
            let actual = List.length r.Vamana.Engine.keys in
            let qe = rep.Vamana.Profile.root_q_error in
            let max_qe = rep.Vamana.Profile.max_q_error in
            Printf.printf "%-4s %-44s %10d %10d %8s %10s\n" label q est actual
              (if Float.is_finite qe then Printf.sprintf "%.3f" qe else "inf")
              (if Float.is_finite max_qe then Printf.sprintf "%.3f" max_qe else "inf");
            J.Obj
              [ ("label", J.Str label);
                ("query", J.Str q);
                ("estimated", J.Int est);
                ("actual", J.Int actual);
                ("q_error", if Float.is_finite qe then J.Float qe else J.Null);
                ("max_op_q_error", if Float.is_finite max_qe then J.Float max_qe else J.Null);
                ("execute_ms", J.Float (r.Vamana.Engine.execute_time *. 1000.)) ])
      queries
  in
  let json = J.Obj [ ("document_mb", J.Float mb); ("queries", J.Arr rows) ] in
  let oc = open_out qerror_file in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote %s — diff it across PRs to catch cost-model drift;\n\
                \ q-error = max(est/actual, actual/est), estimates are Table I upper bounds)\n"
    qerror_file

(* ---- regression gate: a committed baseline vs a fresh run ---- *)

let baseline_file = "BENCH_baseline.json"
let gate_mb = 2.0
let gate_rounds = 15

(* Latency is gated on each query's SHARE of the whole batch's latency,
   not on its absolute time: sub-millisecond wall timings on shared
   hardware drift by whole-process "modes" (frequency scaling, hugepage
   luck, neighbors) of up to 2x that no calibration constant tracks,
   but those modes scale every query alike and cancel out of the
   shares.  A plan or storage regression hits specific queries, moves
   their share, and trips the per-query threshold; a uniform slowdown
   of the entire engine is caught by the calibrated total-latency
   backstop at [gross_threshold]. *)
let latency_threshold = 1.5
let qerror_threshold = 1.5
let gross_threshold = 3.0

(* skip the share check for queries this fast at baseline time: timer
   noise dominates below ~50us and would make the gate flaky *)
let gate_min_ms = 0.05

(* Hardware calibration: the min-of-5 time of a fixed ALU loop, giving
   a stable per-host speed constant (observed spread well under 2% on a
   busy VM).  It feeds only the gross total-latency backstop below —
   per-query gating uses latency *shares*, which need no calibration. *)
let calibrate () =
  let work () =
    let acc = ref 0 in
    for i = 1 to 20_000_000 do
      acc := !acc lxor i
    done;
    Sys.opaque_identity !acc
  in
  let best = ref infinity in
  for _ = 1 to 5 do
    let _, t = Obs.time (fun () -> work ()) in
    if t < !best then best := t
  done;
  !best *. 1000.

type gate_row = {
  g_label : string;
  g_query : string;
  g_actual : int;
  g_qerror : float;  (* root q-error; [infinity] when an estimate hit zero *)
  g_exec_ms : float;  (* min-of-[gate_rounds] prepared execution *)
}

(* The query measurements come first and the calibration chase last:
   sub-millisecond B-tree timings are sensitive to heap layout, so both
   `baseline` and `regress` must run an identical allocation history up
   to the point of measurement (which also means regress may only read
   its baseline file AFTER measuring). *)
let measure_gate () =
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store gate_mb in
  let scope = Vamana.Engine.scope_of_context doc.Store.doc_key in
  (* the flight recorder runs for the whole measured batch — one
     begin/end record pair around every timed execution, exactly as the
     service writes them — so the gate numbers carry (and bound) the
     recorder's perturbation of the measured path *)
  let flight_dir = Filename.temp_file "vamana_bench_flight" "" in
  Sys.remove flight_dir;
  Unix.mkdir flight_dir 0o755;
  let flight = Storage.Flight.open_dir ~dir:flight_dir () in
  let prepared =
    List.map
      (fun (label, q) ->
        match Vamana.Engine.prepare ~optimize:true store ~scope q with
        | Error e -> failwith (label ^ ": " ^ e)
        | Ok p ->
            let prof =
              Vamana.Engine.execute_prepared ~profile:true store
                ~context:doc.Store.doc_key p
            in
            (label, q, p, prof, ref infinity))
      queries
  in
  (* a compacted heap before the timing loop removes most of the
     run-to-run GC/layout variance between processes; the rounds visit
     the queries in turn, so a slow period on the host lands in one
     round of every query rather than in all rounds of one *)
  Gc.compact ();
  for _ = 1 to gate_rounds do
    List.iter
      (fun (_, q, p, _, best) ->
        let qid = Obs.fresh_query_id () in
        Storage.Flight.record_begin flight ~qid ~epoch:(Store.epoch store) ~source:q;
        let r = Vamana.Engine.execute_prepared store ~context:doc.Store.doc_key p in
        Storage.Flight.record_end flight
          { Storage.Flight.qid; source = q; ok = true; cache = "bypass";
            latency_us = int_of_float (r.Vamana.Engine.execute_time *. 1e6);
            pages_read = r.Vamana.Engine.io.Storage.Stats.logical_reads;
            physical_reads = r.Vamana.Engine.io.Storage.Stats.physical_reads;
            wal_bytes = 0; fsyncs = 0;
            results = List.length r.Vamana.Engine.keys;
            epoch = Store.epoch store;
            at_ms = int_of_float (Unix.gettimeofday () *. 1000.);
            sampled = false; drift = 0.0 };
        if r.Vamana.Engine.execute_time < !best then best := r.Vamana.Engine.execute_time)
      prepared
  done;
  let rows =
    List.map
      (fun (label, q, _, prof, best) ->
        let rep = Option.get prof.Vamana.Engine.profile in
        { g_label = label;
          g_query = q;
          g_actual = List.length prof.Vamana.Engine.keys;
          g_qerror = rep.Vamana.Profile.root_q_error;
          g_exec_ms = !best *. 1000. })
      prepared
  in
  Storage.Flight.close flight;
  List.iter
    (fun f ->
      let p = Filename.concat flight_dir f in
      if Sys.file_exists p then Sys.remove p)
    [ "flight.log"; "flight.log.1" ];
  (try Unix.rmdir flight_dir with Unix.Unix_error _ -> ());
  let cal = calibrate () in
  (cal, rows)

let print_baseline () =
  Printf.printf "\n== Bench baseline: %.0f MB document, min-of-%d latencies ==\n" gate_mb
    gate_rounds;
  let cal, rows = measure_gate () in
  Printf.printf "calibration: %.1f ms\n" cal;
  Printf.printf "%-4s %10s %8s %12s %12s\n" "Q" "actual" "q-err" "exec(ms)" "normalized";
  let module J = Vamana.Profile.Json in
  let json =
    J.Obj
      [ ("document_mb", J.Float gate_mb);
        ("calibration_ms", J.Float cal);
        ( "queries",
          J.Arr
            (List.map
               (fun r ->
                 Printf.printf "%-4s %10d %8s %12.3f %12.6f\n" r.g_label r.g_actual
                   (if Float.is_finite r.g_qerror then Printf.sprintf "%.3f" r.g_qerror
                    else "inf")
                   r.g_exec_ms (r.g_exec_ms /. cal);
                 J.Obj
                   [ ("label", J.Str r.g_label);
                     ("query", J.Str r.g_query);
                     ("actual", J.Int r.g_actual);
                     ( "q_error",
                       if Float.is_finite r.g_qerror then J.Float r.g_qerror else J.Null );
                     ("execute_ms", J.Float r.g_exec_ms) ])
               rows) ) ]
  in
  let oc = open_out baseline_file in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "(wrote %s — commit it; `bench regress` gates against it)\n" baseline_file

(* minimal JSON reader for the gate's own files: objects, arrays,
   strings, numbers, booleans, null — exactly what print_baseline emits *)
module Jin = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else raise (Bad (Printf.sprintf "expected %c at byte %d" c !pos))
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string");
        let c = s.[!pos] in
        incr pos;
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then raise (Bad "dangling escape"));
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then raise (Bad "truncated \\u escape");
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* the gate only ever reads back ASCII it wrote itself *)
              Buffer.add_char buf (Char.chr (code land 0x7f))
          | _ -> raise (Bad "unknown escape"));
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else raise (Bad ("bad literal at byte " ^ string_of_int !pos))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  Obj (List.rev ((k, v) :: acc))
              | _ -> raise (Bad "expected ',' or '}'")
            in
            members []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elems (v :: acc)
              | Some ']' ->
                  incr pos;
                  Arr (List.rev (v :: acc))
              | _ -> raise (Bad "expected ',' or ']'")
            in
            elems []
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ ->
          let start = !pos in
          while
            !pos < n
            && (match s.[!pos] with
               | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
               | _ -> false)
          do
            incr pos
          done;
          (try Num (float_of_string (String.sub s start (!pos - start)))
           with _ -> raise (Bad ("bad number at byte " ^ string_of_int start)))
      | None -> raise (Bad "unexpected end of input")
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let num = function Some (Num f) -> Some f | _ -> None
  let str = function Some (Str s) -> Some s | _ -> None
  let int j = Option.map int_of_float (num j)
end

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

(* [inject] multiplies the fresh latencies — `--inject-latency 2.0`
   fakes a 2x slowdown so CI can prove the gate actually trips.

   A gate that cannot run is a warning, not a verdict: a missing or
   malformed baseline (fresh clone, pruned artifact, schema drift) skips
   the gate with a SKIPPED banner and a zero exit, so only an actual
   measured regression can fail the build. *)
exception Gate_skip of string

let print_regress ~baseline ~inject =
  Printf.printf "\n== Bench regression gate: fresh run vs %s ==\n%!" baseline;
  (* measure before touching the baseline file — see measure_gate *)
  let cal, rows = measure_gate () in
  try
  let base =
    match Jin.parse (read_file baseline) with
    | j -> j
    | exception Sys_error msg ->
        raise
          (Gate_skip
             (Printf.sprintf "cannot read baseline: %s (run `bench baseline` and commit %s)"
                msg baseline_file))
    | exception Jin.Bad msg ->
        raise (Gate_skip (Printf.sprintf "cannot parse %s: %s" baseline msg))
  in
  let require what = function
    | Some v -> v
    | None -> raise (Gate_skip (Printf.sprintf "baseline is missing %s" what))
  in
  let base_cal = require "calibration_ms" (Jin.num (Jin.member "calibration_ms" base)) in
  let base_rows =
    match Jin.member "queries" base with
    | Some (Jin.Arr rows) -> rows
    | _ -> raise (Gate_skip "baseline is missing the queries array")
  in
  (* the committed q-error reference is optional context, not a gate
     input: absence only costs the fallback for baselines that predate
     per-row q_error fields *)
  let qerror_ref =
    if not (Sys.file_exists qerror_file) then begin
      Printf.printf "warning: %s not found — q-error fallback unavailable (run `bench qerror`)\n"
        qerror_file;
      []
    end
    else
      match Jin.parse (read_file qerror_file) with
      | exception Sys_error msg | exception Jin.Bad msg ->
          Printf.printf "warning: ignoring unreadable %s: %s\n" qerror_file msg;
          []
      | j -> ( match Jin.member "queries" j with Some (Jin.Arr rows) -> rows | _ -> [])
  in
  (* --inject-latency fakes a plan regression on the first query so CI
     can prove the gate trips; a uniform multiplier on every query would
     cancel out of the shares exactly like a frequency-scaling artifact *)
  let rows =
    match rows with
    | r :: rest when inject <> 1.0 -> { r with g_exec_ms = r.g_exec_ms *. inject } :: rest
    | rows -> rows
  in
  Printf.printf "calibration: baseline %.1f ms, this host %.1f ms" base_cal cal;
  if inject <> 1.0 then
    Printf.printf "  [injected %.2fx latency on %s]" inject
      (match rows with r :: _ -> r.g_label | [] -> "-");
  print_newline ();
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt in
  (* pair each fresh row with its baseline row up front: the shares must
     be taken over exactly the queries present on both sides *)
  let paired =
    List.filter_map
      (fun r ->
        match
          List.find_opt
            (fun row -> Jin.str (Jin.member "label" row) = Some r.g_label)
            base_rows
        with
        | None ->
            fail "%s: not present in baseline (re-run `bench baseline`)" r.g_label;
            None
        | Some b -> (
            (* a row with missing fields is warned out of the batch, not
               fatal: the shares are taken over the rows that remain *)
            match (Jin.num (Jin.member "execute_ms" b), Jin.int (Jin.member "actual" b)) with
            | Some b_ms, Some b_actual ->
                let b_q =
                  match Jin.member "q_error" b with
                  | Some (Jin.Num f) -> f
                  | _ -> (
                      (* baselines predating per-row q_error: fall back to
                         the committed q-error reference file *)
                      match
                        List.find_opt
                          (fun row -> Jin.str (Jin.member "label" row) = Some r.g_label)
                          qerror_ref
                      with
                      | Some row -> (
                          match Jin.member "q_error" row with
                          | Some (Jin.Num f) -> f
                          | _ -> infinity)
                      | None -> infinity)
                in
                Some (r, b_ms, b_actual, b_q)
            | _ ->
                Printf.printf "warning: baseline row %s lacks execute_ms/actual — skipped\n"
                  r.g_label;
                None))
      rows
  in
  let base_total = List.fold_left (fun a (_, b_ms, _, _) -> a +. b_ms) 0.0 paired in
  let now_total = List.fold_left (fun a (r, _, _, _) -> a +. r.g_exec_ms) 0.0 paired in
  let gross = now_total /. cal /. (base_total /. base_cal) in
  Printf.printf "batch total: baseline %.3f ms, now %.3f ms (normalized %.2fx)\n" base_total
    now_total gross;
  Printf.printf "%-4s %10s %10s %7s | %8s %8s %7s | %10s %10s\n" "Q" "base(ms)" "now(ms)"
    "share" "base q" "now q" "ratio" "base rows" "now rows";
  List.iter
    (fun (r, b_ms, b_actual, b_q) ->
      let share_ratio = r.g_exec_ms /. now_total /. (b_ms /. base_total) in
      let q_ratio =
        if Float.is_finite b_q && Float.is_finite r.g_qerror then r.g_qerror /. b_q
        else if Float.is_finite b_q then infinity (* finite -> inf: drifted *)
        else 1.0 (* baseline already inf: can't get worse *)
      in
      let pq f = if Float.is_finite f then Printf.sprintf "%.3f" f else "inf" in
      Printf.printf "%-4s %10.3f %10.3f %6.2fx | %8s %8s %6s | %10d %10d\n" r.g_label b_ms
        r.g_exec_ms share_ratio (pq b_q) (pq r.g_qerror)
        (if Float.is_finite q_ratio then Printf.sprintf "%.2fx" q_ratio else "inf")
        b_actual r.g_actual;
      if r.g_actual <> b_actual then
        fail "%s: result cardinality changed %d -> %d (wrong answers, not a slowdown)"
          r.g_label b_actual r.g_actual;
      if b_ms >= gate_min_ms && share_ratio > latency_threshold then
        fail "%s: latency share of the batch grew %.2fx over baseline (threshold %.2fx)"
          r.g_label share_ratio latency_threshold;
      if q_ratio > qerror_threshold then
        fail "%s: q-error grew %s -> %s (threshold %.2fx)" r.g_label (pq b_q) (pq r.g_qerror)
          qerror_threshold)
    paired;
  if gross > gross_threshold then
    fail "whole batch: normalized total latency %.2fx over baseline (threshold %.2fx)" gross
      gross_threshold;
  (match List.rev !problems with
  | [] ->
      Printf.printf
        "gate PASSED: latency shares within %.2fx, q-error within %.2fx, cardinalities exact\n"
        latency_threshold qerror_threshold;
      false
  | ps ->
      Printf.printf "gate FAILED:\n";
      List.iter (Printf.printf "  REGRESSION %s\n") ps;
      true)
  with Gate_skip msg ->
    Printf.printf "gate SKIPPED: %s\n" msg;
    false

(* ---- Bechamel micro-benchmarks: one Test per figure ---- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "\n== Bechamel micro-benchmarks (0.5 MB document, optimized plans) ==\n";
  let store = Store.create ~pool_pages:65536 () in
  let doc = Xmark.load store 0.5 in
  let test_of (label, q) =
    let fig = List.assoc label figure_of_query in
    Test.make
      ~name:(Printf.sprintf "fig%d_%s" fig label)
      (Staged.stage (fun () ->
           match Vamana.Engine.query store ~context:doc.Store.doc_key q with
           | Ok r -> ignore r.Vamana.Engine.keys
           | Error e -> failwith e))
  in
  let tests = Test.make_grouped ~name:"figures" (List.map test_of queries) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let est = match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> Float.nan in
      Printf.printf "%-24s %12.1f us/query  (r2 %s)\n" name (est /. 1000.)
        (match Analyze.OLS.r_square r with Some r2 -> Printf.sprintf "%.4f" r2 | None -> "-"))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ---- driver ---- *)

let default_sizes = [ 1.0; 2.0; 5.0; 10.0 ]
let full_sizes = [ 1.0; 5.0; 10.0; 20.0; 30.0 ]
let parse_sizes s = List.map float_of_string (String.split_on_char ',' s)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let sizes = ref default_sizes in
  let commands = ref [] in
  let baseline = ref baseline_file in
  let inject = ref 1.0 in
  let rec parse = function
    | "--sizes" :: v :: rest ->
        sizes := parse_sizes v;
        parse rest
    | "--full" :: rest ->
        sizes := full_sizes;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline := v;
        parse rest
    | "--inject-latency" :: v :: rest ->
        inject := float_of_string v;
        parse rest
    | cmd :: rest ->
        commands := cmd :: !commands;
        parse rest
    | [] -> ()
  in
  parse args;
  let commands = match List.rev !commands with [] -> [ "all" ] | cs -> cs in
  let want c = List.mem c commands || List.mem "all" commands in
  let fig_requested =
    List.mem "all" commands
    || List.mem "figs" commands
    || List.exists
         (fun (l, _) -> List.mem (Printf.sprintf "fig%d" (List.assoc l figure_of_query)) commands)
         queries
  in
  Printf.printf "VAMANA benchmark harness — sizes: %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.0fMB") !sizes));
  if want "cost" then print_cost ();
  if want "opt" then print_opt ();
  if fig_requested then begin
    Printf.printf "\nbuilding documents...\n%!";
    let sizeds =
      List.map
        (fun mb ->
          let s, t = Obs.time (fun () -> build_sized mb) in
          Printf.printf "  %.0f MB: %d records (%.1fs)\n%!" mb (Store.total_records s.store) t;
          s)
        !sizes
    in
    List.iter
      (fun (label, q) ->
        let fig = Printf.sprintf "fig%d" (List.assoc label figure_of_query) in
        if want fig || List.mem "figs" commands then print_figure sizeds (label, q))
      queries
  end;
  if want "overhead" then print_overhead ();
  if want "ablation" then print_ablation ();
  if want "io" then print_io ();
  (* disk builds real on-disk stores per size: opt-in like the gate
     commands, never part of `all` *)
  if List.mem "disk" commands then print_disk !sizes;
  if want "staleness" then print_staleness ();
  if want "service" then print_service ();
  (* drift churns a live service mid-run: opt-in like the gate commands *)
  if List.mem "drift" commands then print_drift ();
  (* interfere is a gate: exit non-zero if footprint invalidation does
     not beat doc-epoch invalidation under churn *)
  let interfere_lost = List.mem "interfere" commands && not (print_interfere ()) in
  if interfere_lost then begin
    Printf.printf "\ninterfere gate FAILED.\n";
    exit 1
  end;
  if want "qerror" then print_qerror ();
  if want "micro" then micro ();
  (* the gate commands are opt-in: never part of `all` (regress is a CI
     verdict, baseline rewrites a committed file) *)
  if List.mem "baseline" commands then print_baseline ();
  let regressed =
    List.mem "regress" commands && print_regress ~baseline:!baseline ~inject:!inject
  in
  Printf.printf "\ndone.\n";
  if regressed then exit 1
