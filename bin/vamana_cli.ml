(* vamana — command-line front end for the VAMANA XPath engine.

     vamana query   [-f doc.xml | -x MB] [--no-optimize] [-v] QUERY
     vamana explain [-f doc.xml | -x MB] QUERY
     vamana lint    [-f doc.xml | -x MB] [--json] [-q queries.txt | QUERY]
     vamana prove   [--depth D --fanout F --tags K --texts T --max-nodes N --steps S]
                    [--random N --seed S] [--json] [--mutant NAME] [--replay FILE]
     vamana synopsis [-f doc.xml | -x MB] [--json | --check]
     vamana stats   [-f doc.xml | -x MB] [--tags N]
     vamana generate -x MB [-o out.xml]
     vamana serve   [-f doc.xml | -x MB | -s SNAP] [-q queries.txt]
                    [--repeat N] [--json] [--slow-ms MS] ...
     vamana events  [-f doc.xml | -x MB | -s SNAP] [-q queries.txt]
                    [--json] [--follow] [--sample CAT=N] [--ring N]
     vamana trace   [-f doc.xml | -x MB | -s SNAP] [-q queries.txt] [-o trace.json]
     vamana report  -d DIR [--top N]  *)

open Cmdliner
module Store = Mass.Store

let first_doc store =
  match Store.documents store with
  | d :: _ -> d
  | [] -> failwith "store contains no documents"

let report_recovery store =
  match Store.last_recovery store with
  | Some r ->
      Printf.eprintf
        "recovered to epoch %d: %d batches (%d records) replayed, %d bytes of torn log dropped\n"
        r.Storage.Disk.rec_epoch r.Storage.Disk.rec_batches r.Storage.Disk.rec_records
        r.Storage.Disk.rec_dropped_bytes
  | None -> ()

let input_doc ?(pool_pages = 16384) file xmark_mb snapshot data_dir =
  let backend = Option.map (fun dir -> Store.File { dir }) data_dir in
  match (data_dir, file, xmark_mb, snapshot) with
  | Some dir, None, None, None when Storage.Disk.is_store ~dir ->
      (* no input source: reopen the existing durable store (with recovery) *)
      let store = Store.open_file ~pool_pages ~dir () in
      report_recovery store;
      (store, first_doc store)
  | _ -> (
      match snapshot with
      | Some path ->
          let store = Store.load_file ~pool_pages ?backend path in
          (store, first_doc store)
      | None -> (
          let store = Store.create ~pool_pages ?backend () in
          match (file, xmark_mb) with
          | Some path, _ ->
              let tree = Xml.Parser.parse_file path in
              let doc = Store.load store ~name:(Filename.basename path) tree in
              (store, doc)
          | None, Some mb ->
              let doc = Xmark.load store mb in
              (store, doc)
          | None, None ->
              let doc = Xmark.load store 1.0 in
              (store, doc)))

let file_arg =
  let doc = "XML document to load." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let xmark_arg =
  let doc = "Generate an XMark-style document of this many megabytes instead of loading a file." in
  Arg.(value & opt (some float) None & info [ "x"; "xmark" ] ~docv:"MB" ~doc)

let snapshot_arg =
  let doc = "Load the store from a snapshot written by $(b,vamana snapshot save)." in
  Arg.(value & opt (some file) None & info [ "s"; "snapshot" ] ~docv:"SNAP" ~doc)

let data_dir_arg =
  let doc =
    "Durable file-backed storage directory (data file + write-ahead log + manifest). \
     Without $(b,-f)/$(b,-x)/$(b,-s) an existing store at $(docv) is reopened, running \
     crash recovery if the last process died uncleanly; with an input source a fresh \
     store is built at $(docv) and is durable when the command exits."
  in
  Arg.(value & opt (some string) None & info [ "d"; "data-dir" ] ~docv:"DIR" ~doc)

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"XPath expression.")

let handle_parse_errors f =
  try f () with
  | Xml.Parser.Error _ as e ->
      Printf.eprintf "%s\n" (Option.value ~default:"XML error" (Xml.Parser.error_to_string e));
      exit 1
  | Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  | Store.Corrupt_snapshot msg ->
      Printf.eprintf "corrupt snapshot %s\n" msg;
      exit 1
  | Storage.Disk.Corrupt msg ->
      Printf.eprintf "corrupt store %s\n" msg;
      exit 1

let run_query file xmark_mb snapshot data_dir no_optimize verbose query =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  match Vamana.Engine.query ~optimize:(not no_optimize) store ~context:doc.Store.doc_key query with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | Ok r ->
      List.iter
        (fun key ->
          let record = Store.get_exn store key in
          let value = Store.string_value store key in
          let shown =
            if String.length value > 60 then String.sub value 0 57 ^ "..." else value
          in
          if verbose then
            Printf.printf "%-16s %-10s %-14s %s\n" (Flex.to_string key)
              (Mass.Record.kind_to_string record.Mass.Record.kind)
              record.Mass.Record.name shown
          else
            Printf.printf "%s%s\n" record.Mass.Record.name
              (if shown = "" then "" else (if record.Mass.Record.name = "" then "" else ": ") ^ shown))
        r.Vamana.Engine.keys;
      Printf.eprintf "-- %d results; compile %.2f ms, optimize %.2f ms, execute %.2f ms, %d page reads\n"
        (List.length r.Vamana.Engine.keys)
        (r.Vamana.Engine.compile_time *. 1000.)
        (r.Vamana.Engine.optimize_time *. 1000.)
        (r.Vamana.Engine.execute_time *. 1000.)
        r.Vamana.Engine.io.Storage.Stats.logical_reads

let run_explain file xmark_mb snapshot data_dir analyze json no_optimize query =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  let rendered =
    if analyze then
      Vamana.Engine.explain_analyze ~optimize:(not no_optimize) ~json store doc query
    else Vamana.Engine.explain ~optimize:(not no_optimize) store doc query
  in
  match rendered with
  | Ok text ->
      print_string text;
      if json && not (String.length text > 0 && text.[String.length text - 1] = '\n') then
        print_newline ()
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

(* fixed-width #-bar for the stats histograms *)
let bar width n max_n =
  let len = if max_n <= 0 then 0 else n * width / max_n in
  String.make (max len (if n > 0 then 1 else 0)) '#'

(* bucket exact fanout counts into 0,1,2,3-4,5-8,... power-of-two ranges *)
let bucket_fanouts fanouts =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f, n) ->
      let lo, hi =
        if f <= 2 then (f, f)
        else
          let rec go lo = if f <= 2 * lo then (lo + 1, 2 * lo) else go (2 * lo) in
          go 2
      in
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl (lo, hi)) in
      Hashtbl.replace tbl (lo, hi) (cur + n))
    fanouts;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun ((a, _), _) ((b, _), _) -> compare a b)

let openmetrics_snapshot ?metrics ?(plan_health = []) store =
  let metrics =
    match metrics with Some m -> m | None -> Vamana_service.Metrics.create ()
  in
  Vamana_service.Metrics.to_openmetrics ~io:(Store.io_stats store)
    ~pools:(Store.io_by_index store)
    ?disk:(Store.disk_io store) ~plan_health metrics

let run_stats file xmark_mb snapshot data_dir top_tags openmetrics =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  if openmetrics then begin
    (* machine output only: the exposition text is the whole contract *)
    print_string (openmetrics_snapshot store);
    ignore doc
  end
  else begin
  let s = Store.statistics store in
  Printf.printf "document          %s\n" doc.Store.doc_name;
  Printf.printf "records           %d\n" s.Store.record_count;
  Printf.printf "elements          %d\n" doc.Store.element_count;
  Printf.printf "attributes        %d\n" doc.Store.attribute_count;
  Printf.printf "text nodes        %d\n" doc.Store.text_count;
  Printf.printf "doc index pages   %d (height %d)\n" s.Store.doc_index_pages s.Store.doc_index_height;
  Printf.printf "name index pages  %d\n" s.Store.name_index_pages;
  Printf.printf "value index pages %d\n" s.Store.value_index_pages;
  Printf.printf "tuples per page   %.1f\n" s.Store.tuples_per_page;
  (* per-tag record counts straight off the name index *)
  let tags =
    List.sort (fun (_, a) (_, b) -> compare b a) (Store.name_statistics store)
  in
  let shown = List.filteri (fun i _ -> i < top_tags) tags in
  Printf.printf "\n== per-tag record counts (top %d of %d tags) ==\n"
    (List.length shown) (List.length tags);
  let max_n = match shown with (_, n) :: _ -> n | [] -> 0 in
  List.iter
    (fun (tag, n) -> Printf.printf "%-24s %9d %s\n" tag n (bar 40 n max_n))
    shown;
  (* depth / fanout distributions: one clustered scan *)
  let st = Store.structure_statistics store doc in
  Printf.printf "\n== depth histogram (document record = 0, max %d) ==\n" st.Store.s_max_depth;
  let max_d = List.fold_left (fun acc (_, n) -> max acc n) 0 st.Store.s_depths in
  List.iter
    (fun (d, n) -> Printf.printf "%-5d %9d %s\n" d n (bar 40 n max_d))
    st.Store.s_depths;
  Printf.printf "\n== fanout histogram (direct sub-records; mean %.1f, max %d) ==\n"
    st.Store.s_mean_fanout st.Store.s_max_fanout;
  let buckets = bucket_fanouts st.Store.s_fanouts in
  let max_f = List.fold_left (fun acc (_, n) -> max acc n) 0 buckets in
  List.iter
    (fun ((lo, hi), n) ->
      let label = if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi in
      Printf.printf "%-7s %9d %s\n" label n (bar 40 n max_f))
    buckets;
  (* buffer-pool breakdown per index *)
  Printf.printf "\n== buffer pools ==\n";
  Printf.printf "%-12s %9s %9s %9s %10s %10s %10s %11s %7s %7s\n" "index" "pages"
    "resident" "capacity" "logical" "physical" "evictions" "wb_bytes" "fsyncs" "hit";
  List.iter
    (fun (p : Store.pool_info) ->
      Printf.printf "%-12s %9d %9d %9d %10d %10d %10d %11d %7d %6.1f%%\n"
        p.Store.pool_index p.Store.pool_pages_total p.Store.pool_resident
        p.Store.pool_capacity p.Store.pool_io.Storage.Stats.logical_reads
        p.Store.pool_io.Storage.Stats.physical_reads
        p.Store.pool_io.Storage.Stats.evictions
        p.Store.pool_io.Storage.Stats.write_back_bytes
        p.Store.pool_io.Storage.Stats.fsyncs
        (100. *. Storage.Stats.hit_ratio p.Store.pool_io))
    (Store.pool_by_index store);
  (* disk layer (file backend only): WAL and data-file traffic *)
  (match Store.disk_io store with
  | None -> ()
  | Some io ->
      Printf.printf "\n== disk (%s) ==\n"
        (Option.value ~default:"?" (Store.data_dir store));
      Printf.printf "wal records       %d (%d bytes written, %d pending)\n"
        io.Storage.Disk.wal_records io.Storage.Disk.wal_bytes_written
        (Option.value ~default:0 (Store.disk_wal_bytes store));
      Printf.printf "fsyncs            %d\n" io.Storage.Disk.fsyncs;
      Printf.printf "checkpoints       %d\n" io.Storage.Disk.checkpoints;
      Printf.printf "data reads        %d (%d bytes)\n" io.Storage.Disk.data_reads
        io.Storage.Disk.data_read_bytes;
      Printf.printf "data writes       %d (%d bytes)\n" io.Storage.Disk.data_writes
        io.Storage.Disk.data_write_bytes)
  end

let run_generate mb output seed =
  let text = Xmark.generate_string ?seed:(Option.map Int64.of_int seed) mb in
  match output with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      Printf.eprintf "wrote %d bytes to %s\n" (String.length text) path
  | None -> print_string text

let no_optimize_arg =
  Arg.(value & flag & info [ "n"; "no-optimize" ] ~doc:"Execute the default plan (VQP) without optimization.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show FLEX keys and node kinds.")

let query_cmd =
  Cmd.v (Cmd.info "query" ~doc:"Run an XPath query")
    Term.(const run_query $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ no_optimize_arg $ verbose_arg $ query_arg)

let explain_cmd =
  let analyze_arg =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Execute the query with per-operator profiling and show actual vs estimated \
                   cardinalities, q-error, timings and page I/O.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"With $(b,--analyze): emit the profile report as JSON.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show cost-annotated plans; with --analyze, profile an actual execution")
    Term.(const run_explain $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ analyze_arg $ json_arg
          $ no_optimize_arg $ query_arg)

let stats_cmd =
  let tags_arg =
    Arg.(value & opt int 20
         & info [ "tags" ] ~docv:"N" ~doc:"Show the N most frequent tags.")
  in
  let openmetrics_arg =
    Arg.(value & flag
         & info [ "openmetrics" ]
             ~doc:"Emit the storage counters (buffer pools, per-index I/O, WAL/disk traffic) \
                   in OpenMetrics/Prometheus text exposition format instead of the human \
                   report; ends with '# EOF'.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Show storage statistics: record counts, per-tag counts, depth and fanout \
             histograms, buffer-pool breakdown")
    Term.(const run_stats $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ tags_arg
          $ openmetrics_arg)

let generate_cmd =
  let mb = Arg.(value & opt float 1.0 & info [ "x"; "xmark" ] ~docv:"MB" ~doc:"Document size.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.") in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.") in
  Cmd.v (Cmd.info "generate" ~doc:"Emit an XMark-style document")
    Term.(const run_generate $ mb $ out $ seed)

let run_xquery file xmark_mb snapshot data_dir query =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  match Xquery.run_to_xml store ~context:doc.Store.doc_key query with
  | xml -> print_endline xml
  | exception Xquery.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let xquery_cmd =
  Cmd.v (Cmd.info "xquery" ~doc:"Run an XQuery-lite FLWOR query")
    Term.(const run_xquery $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ query_arg)

(* ---- serve: batch query service with caches and metrics ---- *)

let read_queries = function
  | Some path ->
      let ic = open_in path in
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []
  | None ->
      let rec go acc =
        match input_line stdin with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go []

let is_query line =
  let line = String.trim line in
  String.length line > 0 && line.[0] <> '#'

(* snapshot files (OpenMetrics, traces) are rewritten whole: temp +
   rename so a scraper never reads a half-written exposition *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc content);
  Sys.rename tmp path

(* ---- lint: static plan diagnostics without execution ---- *)

let run_lint file xmark_mb snapshot data_dir no_optimize json queries_file query =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  let queries =
    match query with
    | Some q -> [ q ]
    | None -> List.filter is_query (read_queries queries_file)
  in
  if queries = [] then begin
    Printf.eprintf "no queries (pass one as an argument, or -q FILE / stdin, one per line)\n";
    exit 1
  end;
  let scope = Some doc.Store.doc_key in
  let errors = ref 0 and warnings = ref 0 in
  let module A = Vamana.Analysis in
  let module T = Xpath.Typecheck in
  let module J = Vamana.Profile.Json in
  let tally = function
    | T.Error -> incr errors
    | T.Warning -> incr warnings
    | T.Info -> ()
  in
  let lint_one q =
    (* parse separately first: the engine's error string is one line,
       the lint report wants the caret rendering under the source *)
    match Xpath.Parser.parse_spanned q with
    | exception (Xpath.Parser.Error _ as exn) ->
        incr errors;
        Error (Option.value ~default:"parse error" (Xpath.Parser.error_caret q exn))
    | _ -> (
    match Vamana.Engine.prepare ~optimize:(not no_optimize) store ~scope q with
    | Error msg ->
        incr errors;
        Error msg
    | Ok p ->
        let branches =
          List.map2
            (fun plan table -> (plan, table, A.diagnostics table plan))
            p.Vamana.Engine.executed_plans p.Vamana.Engine.tables
        in
        let rep = p.Vamana.Engine.prep_report in
        List.iter (fun (_, _, ds) -> List.iter (fun (d : A.diagnostic) -> tally d.A.severity) ds)
          branches;
        List.iter (fun (d : T.diagnostic) -> tally d.T.severity) rep.T.rep_diagnostics;
        Ok (rep, branches, p.Vamana.Engine.prep_footprint))
  in
  let results = List.map (fun q -> (q, lint_one q)) queries in
  let span_json = function
    | None -> J.Null
    | Some (s : Xpath.Parser.span) ->
        J.Obj [ ("start", J.Int s.Xpath.Parser.sp_start); ("stop", J.Int s.Xpath.Parser.sp_stop) ]
  in
  let typecheck_json (rep : T.report) =
    J.Obj
      [ ("type", J.Str (T.ty_to_string rep.T.rep_ty));
        ("schema_empty", J.Bool rep.T.rep_empty);
        ( "diagnostics",
          J.Arr
            (List.map
               (fun (d : T.diagnostic) ->
                 J.Obj
                   [ ("severity", J.Str (T.severity_to_string d.T.severity));
                     ("code", J.Str d.T.code);
                     ("span", span_json d.T.span);
                     ("message", J.Str d.T.message) ])
               rep.T.rep_diagnostics) );
        ( "steps",
          J.Arr
            (List.map
               (fun (s : T.step_note) ->
                 J.Obj
                   [ ("axis", J.Str (Xpath.Ast.axis_name s.T.sn_axis));
                     ("test", J.Str (Xpath.Ast.node_test_to_string s.T.sn_test));
                     ("span", span_json s.T.sn_span);
                     ("bound", J.Int s.T.sn_bound);
                     ("exact", J.Bool s.T.sn_exact);
                     ("empty", J.Bool s.T.sn_empty) ])
               rep.T.rep_steps) ) ]
  in
  (if json then
     let rows =
       List.map
         (fun (q, r) ->
           match r with
           | Error msg -> J.Obj [ ("query", J.Str q); ("error", J.Str msg) ]
           | Ok (rep, branches, fp) ->
               J.Obj
                 [ ("query", J.Str q);
                   ("typecheck", typecheck_json rep);
                   ("footprint", Vamana.Footprint.to_json fp);
                   ( "branches",
                     J.Arr (List.map (fun (plan, table, ds) -> A.to_json table plan ds) branches) ) ])
         results
     in
     print_endline
       (J.to_string
          (J.Obj
             [ ("queries", J.Arr rows);
               ("errors", J.Int !errors);
               ("warnings", J.Int !warnings) ]))
   else begin
     (* caret renderings are multi-line; keep the two-space indent on
        every line so diagnostics stay visually attached to their query *)
     let print_indented s =
       List.iter (fun l -> Printf.printf "  %s\n" l) (String.split_on_char '\n' s)
     in
     List.iter
       (fun (q, r) ->
         Printf.printf "%s\n" q;
         match r with
         | Error msg ->
             if String.contains msg '\n' then begin
               Printf.printf "  error [compile]\n";
               print_indented msg
             end
             else Printf.printf "  error [compile] %s\n" msg
         | Ok (rep, branches, fp) ->
             List.iter
               (fun (d : T.diagnostic) ->
                 print_indented (Format.asprintf "%a" (T.pp_diagnostic ~src:q) d))
               rep.T.rep_diagnostics;
             Printf.printf "  footprint: %s\n" (Vamana.Footprint.to_string fp);
             List.iter
               (fun (plan, table, ds) ->
                 Printf.printf "  properties: {card≤%d}%s\n"
                   (Hashtbl.find table plan.Vamana.Plan.id).Vamana.Cost.bound
                   (if not (A.statically_empty table plan) then ""
                    else if rep.T.rep_empty then "  -- statically empty, execution skipped"
                    else "  -- statically empty");
                 match ds with
                 | [] -> if rep.T.rep_diagnostics = [] then Printf.printf "  clean\n"
                 | ds ->
                     List.iter
                       (fun d -> Printf.printf "  %s\n" (A.diagnostic_to_string d))
                       ds)
               branches)
       results;
     Printf.printf "-- %d queries, %d errors, %d warnings\n" (List.length results) !errors
       !warnings
   end);
  if !errors > 0 then exit 1

let lint_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a single JSON document.")
  in
  let queries_arg =
    Arg.(value & opt (some file) None
         & info [ "q"; "queries" ] ~docv:"FILE"
             ~doc:"Query batch, one XPath per line ('#' starts a comment). Default: stdin \
                   when no QUERY argument is given.")
  in
  let query_opt_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"XPath expression.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze query plans: cardinality bounds, static emptiness and \
             severity-ranked diagnostics, without executing anything. Exits non-zero on \
             error-severity diagnostics.")
    Term.(const run_lint $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ no_optimize_arg $ json_arg
          $ queries_arg $ query_opt_arg)

(* ---- footprint: static read footprints of compiled plans ---- *)

let run_footprint file xmark_mb snapshot data_dir no_optimize json queries_file query =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  let queries =
    match query with
    | Some q -> [ q ]
    | None -> List.filter is_query (read_queries queries_file)
  in
  if queries = [] then begin
    Printf.eprintf "no queries (pass one as an argument, or -q FILE / stdin, one per line)\n";
    exit 1
  end;
  let scope = Some doc.Store.doc_key in
  let module F = Vamana.Footprint in
  let module J = Vamana.Profile.Json in
  let errors = ref 0 in
  let results =
    List.map
      (fun q ->
        match Vamana.Engine.prepare ~optimize:(not no_optimize) store ~scope q with
        | Error msg ->
            incr errors;
            (q, Error msg)
        | Ok p -> (q, Ok p.Vamana.Engine.prep_footprint))
      queries
  in
  (if json then
     let rows =
       List.map
         (fun (q, r) ->
           match r with
           | Error msg -> J.Obj [ ("query", J.Str q); ("error", J.Str msg) ]
           | Ok fp ->
               J.Obj
                 [ ("query", J.Str q);
                   ("footprint", F.to_json fp);
                   ("top", J.Bool (F.is_top fp)) ])
         results
     in
     print_endline
       (J.to_string (J.Obj [ ("queries", J.Arr rows); ("errors", J.Int !errors) ]))
   else
     List.iter
       (fun (q, r) ->
         match r with
         | Error msg -> Printf.printf "%s\n  error %s\n" q msg
         | Ok fp -> Printf.printf "%s\n  %s\n" q (F.to_string fp))
       results);
  if !errors > 0 then exit 1

let footprint_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit footprints as a single JSON document.")
  in
  let queries_arg =
    Arg.(value & opt (some file) None
         & info [ "q"; "queries" ] ~docv:"FILE"
             ~doc:"Query batch, one XPath per line ('#' starts a comment). Default: stdin \
                   when no QUERY argument is given.")
  in
  let query_opt_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"XPath expression.")
  in
  Cmd.v
    (Cmd.info "footprint"
       ~doc:"Compute the static read footprint of each query's prepared plan — the tag \
             tests, node-kind classes, value-index keys and string-value cones it can \
             touch. A store update whose write delta is disjoint from the footprint \
             provably leaves the query's result unchanged; this is the evidence the \
             service's result cache uses to keep entries across mutations. ⊤ means the \
             analysis could not bound the reads (e.g. a variable or unknown function).")
    Term.(const run_footprint $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg
          $ no_optimize_arg $ json_arg $ queries_arg $ query_opt_arg)

(* ---- synopsis: dump or verify the path synopsis ---- *)

let run_synopsis file xmark_mb snapshot data_dir json check =
  handle_parse_errors @@ fun () ->
  let store, _doc = input_doc file xmark_mb snapshot data_dir in
  let module S = Mass.Synopsis in
  let syn = S.for_store store in
  if check then (
    match S.verify store syn with
    | Ok () ->
        Printf.printf "synopsis consistent: %d paths, %d records, epoch %d\n" (S.paths syn)
          (S.records syn) (S.epoch syn)
    | Error msg ->
        Printf.eprintf "synopsis check FAILED: %s\n" msg;
        exit 1)
  else if json then begin
    let module J = Vamana.Profile.Json in
    let rows =
      List.rev
        (S.fold syn ~init:[] ~f:(fun acc ~path ~count ->
             J.Obj [ ("path", J.Str (String.concat "/" path)); ("count", J.Int count) ] :: acc))
    in
    print_endline
      (J.to_string
         (J.Obj
            [ ("epoch", J.Int (S.epoch syn));
              ("paths", J.Int (S.paths syn));
              ("records", J.Int (S.records syn));
              ("nodes", J.Arr rows) ]))
  end
  else begin
    Printf.printf "%d paths, %d records (epoch %d)\n" (S.paths syn) (S.records syn)
      (S.epoch syn);
    ignore
      (S.fold syn ~init:() ~f:(fun () ~path ~count ->
           let depth = List.length path - 1 in
           let tag = List.nth path depth in
           Printf.printf "%-48s %9d\n" (String.make (2 * depth) ' ' ^ tag) count))
  end

let synopsis_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the synopsis as a single JSON document.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Verify the store's synopsis against a fresh store scan and the per-kind \
                   record counters instead of dumping it; exits non-zero on any discrepancy.")
  in
  Cmd.v
    (Cmd.info "synopsis"
       ~doc:"Show the DataGuide-style path synopsis: one row per distinct root-to-tag path \
             with its exact record count — the structural summary behind the static checker \
             and the optimizer's chain cardinalities")
    Term.(const run_synopsis $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ json_arg $ check_arg)

let run_serve file xmark_mb snapshot data_dir queries_file repeat no_optimize plan_cap result_cap json
    quiet slow_ms trace_out metrics_out sample_every drift_threshold =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  (* a durable store gets a flight recorder for free: every served query
     leaves a begin/end record pair in <data-dir>/flight.log *)
  let flight =
    Option.map (fun dir -> Storage.Flight.open_dir ~dir ()) (Store.data_dir store)
  in
  let service =
    (* slow-query logging is opt-in on the CLI: without --slow-ms the
       threshold is infinite and the service log stays empty *)
    Vamana_service.Service.create ~plan_cache_capacity:plan_cap
      ~result_cache_capacity:result_cap ~optimize:(not no_optimize)
      ~slow_threshold:(if slow_ms > 0. then slow_ms /. 1000. else infinity)
      ~sample_every ~drift_threshold ?flight store
  in
  let queries = List.filter is_query (read_queries queries_file) in
  if queries = [] then begin
    Printf.eprintf "no queries (one XPath per line; '#' comments)\n";
    exit 1
  end;
  let cache_tag = function
    | `Hit -> "hit"
    | `Miss -> "miss"
    | `Stale -> "stale"
    | `Bypass -> "-"
  in
  let trace_events = ref [] in
  let trace_sink =
    Option.map
      (fun _ ->
        Obs.reset ();
        Obs.attach_sink (fun e -> trace_events := e :: !trace_events))
      trace_out
  in
  let write_metrics () =
    Option.iter
      (fun path ->
        write_atomic path
          (openmetrics_snapshot ~metrics:(Vamana_service.Service.metrics service)
             ~plan_health:
               (Vamana_service.Health.openmetrics_families
                  (Vamana_service.Service.health service))
             store))
      metrics_out
  in
  if not quiet then
    Printf.printf "%-44s %8s %10s %6s %6s\n" "query" "results" "ms" "plan" "result";
  let failures = ref 0 in
  (* the final snapshot must appear even when queries in the batch fail
     (including evaluator exceptions), so every failure is contained here *)
  for round = 1 to max 1 repeat do
    if (not quiet) && repeat > 1 then Printf.printf "-- round %d --\n" round;
    List.iter
      (fun q ->
        let outcome =
          match Vamana_service.Service.query service ~context:doc.Store.doc_key q with
          | o -> o
          | exception e -> Error (Printexc.to_string e)
        in
        match outcome with
        | Ok o ->
            if not quiet then
              Printf.printf "%-44s %8d %10.3f %6s %6s\n" q
                (List.length o.Vamana_service.Service.result.Vamana.Engine.keys)
                (o.Vamana_service.Service.total_time *. 1000.)
                (cache_tag o.Vamana_service.Service.plan_cache)
                (cache_tag o.Vamana_service.Service.result_cache)
        | Error msg ->
            incr failures;
            Printf.eprintf "%-44s error: %s\n" q msg)
      queries;
    (* rewrite the scrape file after every round so a long-running batch
       exposes fresh counters, not just a final post-mortem *)
    write_metrics ()
  done;
  (match trace_sink with
  | None -> ()
  | Some s ->
      Obs.detach_sink s;
      let path = Option.get trace_out in
      write_atomic path (Obs.Trace.to_chrome (List.rev !trace_events));
      Printf.eprintf "wrote %d trace events to %s\n" (List.length !trace_events) path);
  Option.iter Storage.Flight.close flight;
  (if slow_ms > 0. && not json then begin
     let slow = Vamana_service.Service.slow_queries service in
     Printf.printf "\n== slow queries (>= %.1f ms; %d logged) ==\n" slow_ms (List.length slow);
     if slow <> [] then
       Printf.printf "%-44s %5s %10s %8s %6s %6s %7s %9s %6s %6s\n" "query" "qid" "ms" "results"
         "plan" "result" "pages" "wal_bytes" "fsyncs" "drift";
     List.iter
       (fun (r : Vamana_service.Service.record) ->
         let a = r.Vamana_service.Service.r_attribution in
         Printf.printf "%-44s %5d %10.3f %8d %6s %6s %7d %9d %6d %6.2f\n"
           r.Vamana_service.Service.r_source r.Vamana_service.Service.r_qid
           (r.Vamana_service.Service.r_total_time *. 1000.)
           r.Vamana_service.Service.r_results
           (cache_tag r.Vamana_service.Service.r_plan_cache)
           (cache_tag r.Vamana_service.Service.r_result_cache)
           a.Vamana.Engine.attr_io.Storage.Stats.logical_reads
           a.Vamana.Engine.attr_wal_bytes a.Vamana.Engine.attr_fsyncs
           r.Vamana_service.Service.r_drift)
       slow
   end);
  let snapshot_out =
    if json then Vamana_service.Service.snapshot_json service
    else "\n== metrics snapshot ==\n" ^ Vamana_service.Service.snapshot_text service
  in
  print_string snapshot_out;
  if json then print_newline ();
  if !failures > 0 then begin
    Printf.eprintf "%d of %d queries failed\n" !failures (List.length queries * max 1 repeat);
    exit 1
  end

let serve_cmd =
  let queries_arg =
    Arg.(value & opt (some file) None
         & info [ "q"; "queries" ] ~docv:"FILE"
             ~doc:"Query batch, one XPath per line ('#' starts a comment). Default: stdin.")
  in
  let repeat_arg =
    Arg.(value & opt int 1
         & info [ "r"; "repeat" ] ~docv:"N" ~doc:"Run the batch N times (warms the caches).")
  in
  let plan_cap_arg =
    Arg.(value & opt int 128 & info [ "plan-cache" ] ~docv:"N" ~doc:"Plan cache capacity.")
  in
  let result_cap_arg =
    Arg.(value & opt int 512
         & info [ "result-cache" ] ~docv:"N" ~doc:"Result cache capacity (0 disables).")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics snapshot as JSON.") in
  let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-query output.") in
  let slow_ms_arg =
    Arg.(value & opt float 0.0
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Log queries slower than MS milliseconds and print them (with their cache \
                   outcomes) after the batch. Default: off.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Record the batch's telemetry events and write them as a Chrome \
                   trace_event JSON file (open in Perfetto or chrome://tracing).")
  in
  let metrics_out_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Rewrite FILE atomically (temp + rename) with an OpenMetrics snapshot \
                   of the service and storage counters after every round.")
  in
  let sample_every_arg =
    Arg.(value & opt int Vamana_service.Health.default_sample_every
         & info [ "sample-every" ] ~docv:"N"
             ~doc:"Run every Nth execution of each cached plan with profiling on and feed \
                   the plan-health drift detector (0 disables sampling).")
  in
  let drift_threshold_arg =
    Arg.(value & opt float Vamana_service.Health.default_drift_threshold
         & info [ "drift-threshold" ] ~docv:"X"
             ~doc:"EWMA cost-drift score above which a plan is marked stale and \
                   transparently re-prepared on its next request (0 disables replanning).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a query batch through the cached, metered query service")
    Term.(const run_serve $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ queries_arg $ repeat_arg
          $ no_optimize_arg $ plan_cap_arg $ result_cap_arg $ json_arg $ quiet_arg
          $ slow_ms_arg $ trace_out_arg $ metrics_out_arg $ sample_every_arg $ drift_threshold_arg)

(* ---- health: drive a batch with the plan-health sampler on, churning
   the store between rounds so cost-model drift actually happens ---- *)

let run_health file xmark_mb snapshot data_dir queries_file repeat churn churn_xpath churn_tag
    sample_every drift_threshold json quiet =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  let service =
    Vamana_service.Service.create ~sample_every ~drift_threshold store
  in
  let queries = List.filter is_query (read_queries queries_file) in
  if queries = [] then begin
    Printf.eprintf "no queries (one XPath per line; '#' comments)\n";
    exit 1
  end;
  (* churn inserts land under an XPath-selected parent, so the skew hits
     exactly the statistics the batch's plans were costed against *)
  let churn_parent =
    if churn <= 0 then None
    else
      match Vamana.Engine.query store ~context:doc.Store.doc_key churn_xpath with
      | Ok { Vamana.Engine.keys = k :: _; _ } -> Some k
      | Ok _ ->
          Printf.eprintf "--churn-xpath %s selected nothing\n" churn_xpath;
          exit 1
      | Error msg ->
          Printf.eprintf "--churn-xpath %s: %s\n" churn_xpath msg;
          exit 1
  in
  let failures = ref 0 in
  let inserted = ref 0 in
  let rounds = max 1 repeat in
  for round = 1 to rounds do
    List.iter
      (fun q ->
        match Vamana_service.Service.query service ~context:doc.Store.doc_key q with
        | Ok _ -> ()
        | Error msg ->
            incr failures;
            Printf.eprintf "%s error: %s\n" q msg
        | exception e ->
            incr failures;
            Printf.eprintf "%s error: %s\n" q (Printexc.to_string e))
      queries;
    match churn_parent with
    | Some parent when round < rounds ->
        for _ = 1 to churn do
          incr inserted;
          ignore
            (Store.insert_element store ~parent churn_tag
               [ ("h", string_of_int !inserted) ]
               (Some (Printf.sprintf "health-%d" !inserted)))
        done
    | _ -> ()
  done;
  let health = Vamana_service.Service.health service in
  if json then
    print_endline (Vamana.Profile.Json.to_string (Vamana_service.Health.to_json health))
  else begin
    let m = Vamana_service.Service.metrics service in
    let clip s n = if String.length s > n then String.sub s 0 (n - 3) ^ "..." else s in
    if not quiet then begin
      Printf.printf "rounds %d  queries %d  churn inserts %d  store epoch %d\n" rounds
        (List.length queries) !inserted (Store.epoch store);
      Printf.printf "sampled executions %d  drift events %d  adaptive replans %d\n\n"
        (Vamana_service.Metrics.counter m "sampled_executions")
        (Vamana_service.Metrics.counter m "plan_drift_events")
        (Vamana_service.Metrics.counter m "adaptive_replans")
    end;
    Printf.printf "%-48s %6s %7s %7s %6s %7s %7s %8s  %s\n" "shape {slot classes}" "execs"
      "samples" "drift" "stale" "replans" "epoch" "max_q" "worst op";
    List.iter
      (fun (r : Vamana_service.Health.record) ->
        let last_q, worst =
          match List.rev (Vamana_service.Health.samples r) with
          | s :: _ ->
              (Printf.sprintf "%8.2f" s.Vamana_service.Health.s_max_q,
               s.Vamana_service.Health.s_worst_op)
          | [] -> ("       -", "-")
        in
        Printf.printf "%-48s %6d %7d %7.3f %6s %7d %7d %s  %s\n"
          (clip r.Vamana_service.Health.hr_query 48)
          r.Vamana_service.Health.hr_executions r.Vamana_service.Health.hr_sampled
          r.Vamana_service.Health.hr_drift
          (if r.Vamana_service.Health.hr_stale then "yes" else "no")
          r.Vamana_service.Health.hr_replans r.Vamana_service.Health.hr_last_epoch last_q
          (clip worst 32))
      (Vamana_service.Health.records health)
  end;
  if !failures > 0 then begin
    Printf.eprintf "%d of %d queries failed\n" !failures (List.length queries * rounds);
    exit 1
  end

let health_cmd =
  let queries_arg =
    Arg.(value & opt (some file) None
         & info [ "q"; "queries" ] ~docv:"FILE"
             ~doc:"Query batch, one XPath per line ('#' starts a comment). Default: stdin.")
  in
  let repeat_arg =
    Arg.(value & opt int 8
         & info [ "r"; "repeat" ] ~docv:"N"
             ~doc:"Run the batch N times; churn (if any) is applied between rounds.")
  in
  let churn_arg =
    Arg.(value & opt int 0
         & info [ "churn" ] ~docv:"N"
             ~doc:"Insert N elements between rounds, drifting the statistics the cached \
                   plans were costed against. Default: no churn.")
  in
  let churn_xpath_arg =
    Arg.(value & opt string "/*"
         & info [ "churn-xpath" ] ~docv:"XPATH"
             ~doc:"Parent element for churn inserts: the first node the expression selects.")
  in
  let churn_tag_arg =
    Arg.(value & opt string "churn"
         & info [ "churn-tag" ] ~docv:"TAG" ~doc:"Tag name of churn-inserted elements.")
  in
  let sample_every_arg =
    Arg.(value & opt int 1
         & info [ "sample-every" ] ~docv:"N"
             ~doc:"Sample every Nth execution of each plan (default 1 here: every \
                   execution feeds the drift detector).")
  in
  let drift_threshold_arg =
    Arg.(value & opt float Vamana_service.Health.default_drift_threshold
         & info [ "drift-threshold" ] ~docv:"X"
             ~doc:"EWMA drift score above which a plan is re-prepared.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the full health table as JSON (per-plan drift, replans, and the \
                   sampled q-error reservoir).")
  in
  let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"Table only, no summary header.") in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Serve a query batch with the always-on plan-health sampler and report per-plan \
             q-error trend, EWMA cost-drift score, and adaptive replans; $(b,--churn) \
             mutates the store between rounds to force drift.  A plan is one query shape \
             (string literals shown as slots \\$1, \\$2, ...) and selectivity class: \
             {\\$1:tc=4..7} reads 'slot 1's literal occurs 4 to 7 times', {\\$2=\\$1} \
             'slot 2 repeats slot 1'")
    Term.(const run_health $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ queries_arg
          $ repeat_arg $ churn_arg $ churn_xpath_arg $ churn_tag_arg $ sample_every_arg
          $ drift_threshold_arg $ json_arg $ quiet_arg)

(* ---- events: run a batch with the telemetry bus attached ---- *)

let run_events file xmark_mb snapshot data_dir queries_file repeat no_optimize json follow slow_ms
    samples ring_cap =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  let service =
    Vamana_service.Service.create ~optimize:(not no_optimize)
      ~slow_threshold:
        (if slow_ms > 0. then slow_ms /. 1000.
         else Vamana_service.Service.default_slow_threshold)
      store
  in
  let queries = List.filter is_query (read_queries queries_file) in
  if queries = [] then begin
    Printf.eprintf "no queries (one XPath per line; '#' comments)\n";
    exit 1
  end;
  Obs.reset ();
  List.iter (fun (cat, n) -> Obs.set_sample_rate cat n) samples;
  let render = if json then Obs.to_json_string else Obs.to_text in
  (* --follow streams through a live sink; otherwise events collect in
     the ring and are drained once the batch is done *)
  let sink =
    if follow then Some (Obs.attach_sink (fun e -> print_endline (render e)))
    else begin
      Obs.attach_ring ~capacity:ring_cap ();
      None
    end
  in
  let failures = ref 0 in
  let drained = ref None in
  let overwritten = ref 0 in
  (* the bus is process-global: even when the batch dies mid-run the
     sink (or ring) must come off, or every later emitter in this
     process keeps paying for a subscriber nobody drains *)
  Fun.protect
    ~finally:(fun () ->
      match sink with Some s -> Obs.detach_sink s | None -> Obs.detach_ring ())
    (fun () ->
      for _round = 1 to max 1 repeat do
        List.iter
          (fun q ->
            match Vamana_service.Service.query service ~context:doc.Store.doc_key q with
            | Ok _ -> ()
            | Error msg ->
                incr failures;
                Printf.eprintf "%s error: %s\n" q msg
            | exception e ->
                incr failures;
                Printf.eprintf "%s error: %s\n" q (Printexc.to_string e))
          queries
      done;
      match sink with
      | Some _ -> ()
      | None ->
          let events = Obs.drain () in
          overwritten := Obs.dropped ();
          List.iter (fun e -> print_endline (render e)) events;
          drained := Some (List.length events));
  let drained = !drained in
  let overwritten = !overwritten in
  let sampled = Obs.sampled_out () in
  Obs.reset ();
  (match drained with
  | Some n ->
      Printf.eprintf "-- %d events drained (%d overwritten, %d sampled out)\n" n overwritten
        sampled
  | None -> Printf.eprintf "-- follow finished (%d events sampled out)\n" sampled);
  if !failures > 0 then begin
    Printf.eprintf "%d of %d queries failed\n" !failures (List.length queries * max 1 repeat);
    exit 1
  end

let events_cmd =
  let queries_arg =
    Arg.(value & opt (some file) None
         & info [ "q"; "queries" ] ~docv:"FILE"
             ~doc:"Query batch, one XPath per line ('#' starts a comment). Default: stdin.")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "r"; "repeat" ] ~docv:"N" ~doc:"Run the batch N times.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Render events as JSON lines.") in
  let follow_arg =
    Arg.(value & flag
         & info [ "follow" ]
             ~doc:"Stream events live as the batch runs instead of draining the ring buffer \
                   at the end.")
  in
  let slow_ms_arg =
    Arg.(value & opt float 0.0
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Slow-query threshold in milliseconds (default: the service default, 100).")
  in
  let sample_arg =
    Arg.(value & opt_all (pair ~sep:'=' string int) []
         & info [ "sample" ] ~docv:"CATEGORY=N"
             ~doc:"Keep one in N events of CATEGORY (repeatable).")
  in
  let ring_arg =
    Arg.(value & opt int Obs.default_ring_capacity
         & info [ "ring" ] ~docv:"N" ~doc:"Ring buffer capacity.")
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:"Run a query batch with the telemetry bus attached and print its events")
    Term.(const run_events $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ queries_arg $ repeat_arg
          $ no_optimize_arg $ json_arg $ follow_arg $ slow_ms_arg $ sample_arg $ ring_arg)

(* ---- trace: run a batch and export a Chrome trace_event file ---- *)

let run_trace file xmark_mb snapshot data_dir queries_file repeat no_optimize output samples =
  handle_parse_errors @@ fun () ->
  let store, doc = input_doc file xmark_mb snapshot data_dir in
  let service = Vamana_service.Service.create ~optimize:(not no_optimize) store in
  let queries = List.filter is_query (read_queries queries_file) in
  if queries = [] then begin
    Printf.eprintf "no queries (one XPath per line; '#' comments)\n";
    exit 1
  end;
  Obs.reset ();
  List.iter (fun (cat, n) -> Obs.set_sample_rate cat n) samples;
  let events = ref [] in
  let sink = Obs.attach_sink (fun e -> events := e :: !events) in
  let failures = ref 0 in
  Fun.protect
    ~finally:(fun () -> Obs.detach_sink sink)
    (fun () ->
      for _round = 1 to max 1 repeat do
        List.iter
          (fun q ->
            match Vamana_service.Service.query service ~context:doc.Store.doc_key q with
            | Ok _ -> ()
            | Error msg ->
                incr failures;
                Printf.eprintf "%s error: %s\n" q msg
            | exception e ->
                incr failures;
                Printf.eprintf "%s error: %s\n" q (Printexc.to_string e))
          queries
      done);
  Obs.reset ();
  let trace = Obs.Trace.to_chrome (List.rev !events) in
  (match output with
  | Some path ->
      write_atomic path trace;
      Printf.eprintf "wrote %d trace events to %s (open in Perfetto / chrome://tracing)\n"
        (List.length !events) path
  | None -> print_endline trace);
  if !failures > 0 then begin
    Printf.eprintf "%d of %d queries failed\n" !failures (List.length queries * max 1 repeat);
    exit 1
  end

let trace_cmd =
  let queries_arg =
    Arg.(value & opt (some file) None
         & info [ "q"; "queries" ] ~docv:"FILE"
             ~doc:"Query batch, one XPath per line ('#' starts a comment). Default: stdin.")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "r"; "repeat" ] ~docv:"N" ~doc:"Run the batch N times.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Trace file to write (default: stdout).")
  in
  let sample_arg =
    Arg.(value & opt_all (pair ~sep:'=' string int) []
         & info [ "sample" ] ~docv:"CATEGORY=N"
             ~doc:"Keep one in N events of CATEGORY (repeatable).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a query batch with telemetry on and export it as Chrome trace_event JSON \
             — open the file in Perfetto (ui.perfetto.dev) or chrome://tracing")
    Term.(const run_trace $ file_arg $ xmark_arg $ snapshot_arg $ data_dir_arg $ queries_arg
          $ repeat_arg $ no_optimize_arg $ out_arg $ sample_arg)

(* ---- report: aggregate the flight recorder ---- *)

let run_report data_dir top =
  let module F = Storage.Flight in
  let module H = Storage.Stats.Histogram in
  let entries = F.read_dir ~dir:data_dir in
  if entries = [] then begin
    Printf.eprintf "no flight records under %s (serve with -d to record queries)\n" data_dir;
    exit 1
  end;
  let ends = List.filter_map (function F.End e -> Some e | F.Begin _ -> None) entries in
  let inflight = F.in_flight entries in
  let total = List.length ends in
  let errs = List.length (List.filter (fun (e : F.query_record) -> not e.F.ok) ends) in
  let sum_us =
    List.fold_left (fun acc (e : F.query_record) -> acc + e.F.latency_us) 0 ends
  in
  let sum_pages =
    List.fold_left (fun acc (e : F.query_record) -> acc + e.F.pages_read) 0 ends
  in
  let sampled = List.length (List.filter (fun (e : F.query_record) -> e.F.sampled) ends) in
  Printf.printf "== flight report (%s) ==\n" data_dir;
  Printf.printf "completed queries  %d (%d errors)\n" total errs;
  Printf.printf "total latency      %.3f ms\n" (float_of_int sum_us /. 1000.);
  Printf.printf "total pages read   %d\n" sum_pages;
  Printf.printf "sampled (health)   %d\n" sampled;
  let clip s n = if String.length s > n then String.sub s 0 (n - 3) ^ "..." else s in
  let top_section title key render =
    let sorted =
      List.stable_sort (fun a b -> compare (key b) (key a)) ends
    in
    let shown = List.filteri (fun i _ -> i < top) sorted in
    Printf.printf "\n== top %d by %s ==\n" (List.length shown) title;
    List.iter render shown
  in
  top_section "latency"
    (fun (e : F.query_record) -> e.F.latency_us)
    (fun (e : F.query_record) ->
      Printf.printf "%10.3f ms  qid %-6d %-6s %8d pages %8d results  %s\n"
        (float_of_int e.F.latency_us /. 1000.)
        e.F.qid e.F.cache e.F.pages_read e.F.results (clip e.F.source 44));
  top_section "pages read"
    (fun (e : F.query_record) -> e.F.pages_read)
    (fun (e : F.query_record) ->
      Printf.printf "%8d pages  qid %-6d %-6s %10.3f ms %6d wal_bytes %3d fsyncs  %s\n"
        e.F.pages_read e.F.qid e.F.cache
        (float_of_int e.F.latency_us /. 1000.)
        e.F.wal_bytes e.F.fsyncs (clip e.F.source 44));
  (* drifting plans, newest record per shape: which cached plans were
     aging when the recorder last saw them *)
  let drifting = Hashtbl.create 16 in
  List.iter
    (fun (e : F.query_record) ->
      if e.F.drift > 0.0 then
        let shape = fst (Vamana_service.Service.shape e.F.source) in
        match Hashtbl.find_opt drifting shape with
        | Some (prev : F.query_record) when prev.F.qid >= e.F.qid -> ()
        | _ -> Hashtbl.replace drifting shape e)
    ends;
  let drift_rows =
    Hashtbl.fold (fun shape e acc -> (shape, e) :: acc) drifting []
    |> List.sort (fun (_, (a : F.query_record)) (_, (b : F.query_record)) ->
           compare b.F.drift a.F.drift)
    |> List.filteri (fun i _ -> i < top)
  in
  if drift_rows <> [] then begin
    Printf.printf "\n== top %d by cost drift (last recorded score per shape) ==\n"
      (List.length drift_rows);
    List.iter
      (fun (shape, (e : F.query_record)) ->
        Printf.printf "%8.3f drift  qid %-6d %-6s %10.3f ms  %s\n" e.F.drift e.F.qid e.F.cache
          (float_of_int e.F.latency_us /. 1000.)
          (clip shape 44))
      drift_rows
  end;
  (* per-shape percentiles: group by the service's plan-cache shape, so
     "//person / address" and "//person/address" aggregate as one
     shape, and so do "//person[@id='p1']" and "//person[@id='p2']"
     (shown as "//person[@id=$1]") *)
  let shapes = Hashtbl.create 32 in
  List.iter
    (fun (e : F.query_record) ->
      let shape = fst (Vamana_service.Service.shape e.F.source) in
      let h =
        match Hashtbl.find_opt shapes shape with
        | Some h -> h
        | None ->
            let h = H.create () in
            Hashtbl.add shapes shape h;
            h
      in
      H.observe h (float_of_int e.F.latency_us /. 1e6))
    ends;
  let rows =
    Hashtbl.fold (fun shape h acc -> (shape, h) :: acc) shapes []
    |> List.sort (fun (_, a) (_, b) -> compare (H.sum b) (H.sum a))
  in
  Printf.printf "\n== per-shape latency (%d shapes) ==\n" (List.length rows);
  Printf.printf "%-44s %6s %10s %10s %10s %10s\n" "shape" "n" "p50 ms" "p95 ms" "p99 ms"
    "max ms";
  List.iter
    (fun (shape, h) ->
      Printf.printf "%-44s %6d %10.3f %10.3f %10.3f %10.3f\n" (clip shape 44) (H.count h)
        (H.percentile h 50.0 *. 1000.) (H.percentile h 95.0 *. 1000.)
        (H.percentile h 99.0 *. 1000.) (H.max_value h *. 1000.))
    rows;
  (* queries that began but never ended: what was running at the crash *)
  if inflight <> [] then begin
    Printf.printf "\n== in flight at last shutdown (%d) ==\n" (List.length inflight);
    List.iter
      (fun (b : F.begin_record) ->
        Printf.printf "qid %-6d epoch %-6d %s\n" b.F.b_qid b.F.b_epoch (clip b.F.b_source 60))
      inflight
  end

let report_cmd =
  let dir =
    Arg.(required & opt (some string) None
         & info [ "d"; "data-dir" ] ~docv:"DIR" ~doc:"Data directory holding flight.log.")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Rows per top-N section.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Aggregate the query flight recorder: top-N by latency and by I/O, per-shape \
             latency percentiles, and the queries in flight when the process last died.  A \
             shape is a query with its string literals lifted into slots \\$1, \\$2, ...; the \
             top-N sections show the texts as served")
    Term.(const run_report $ dir $ top_arg)

(* ---- snapshot: whole-store save/restore, including across backends ---- *)

let run_snapshot_save file xmark_mb data_dir output =
  handle_parse_errors @@ fun () ->
  let store, _ = input_doc file xmark_mb None data_dir in
  Store.save_file store output;
  Printf.eprintf "saved store snapshot to %s\n" output;
  Store.close store

let run_snapshot_load snap data_dir =
  handle_parse_errors @@ fun () ->
  let store = Store.load_file ~backend:(Store.File { dir = data_dir }) snap in
  let docs = Store.documents store in
  Printf.eprintf "restored %d document(s) (%d records) from %s into %s\n" (List.length docs)
    (Store.total_records store) snap data_dir;
  Store.close store

let snapshot_cmd =
  let save =
    let out =
      Arg.(required & opt (some string) None
           & info [ "o"; "output" ] ~docv:"SNAP" ~doc:"Snapshot path.")
    in
    Cmd.v
      (Cmd.info "save"
         ~doc:"Write a whole-store binary snapshot (from a file, generated XMark data, or \
               an existing $(b,--data-dir) store)")
      Term.(const run_snapshot_save $ file_arg $ xmark_arg $ data_dir_arg $ out)
  in
  let load =
    let snap =
      Arg.(required & pos 0 (some file) None & info [] ~docv:"SNAP" ~doc:"Snapshot to restore.")
    in
    let dir =
      Arg.(required & opt (some string) None
           & info [ "d"; "data-dir" ] ~docv:"DIR"
               ~doc:"Directory to materialize the durable store in.")
    in
    Cmd.v
      (Cmd.info "load"
         ~doc:"Restore a snapshot into a fresh durable store: the rebuild runs through the \
               bulk-ingest path (no WAL traffic) and ends with one checkpoint")
      Term.(const run_snapshot_load $ snap $ dir)
  in
  Cmd.group (Cmd.info "snapshot" ~doc:"Whole-store snapshot save/restore") [ save; load ]

(* ---- churn: sustained update loop against a durable store (crash-test target) ---- *)

let run_churn data_dir iters report =
  handle_parse_errors @@ fun () ->
  if not (Storage.Disk.is_store ~dir:data_dir) then begin
    Printf.eprintf "no store at %s (build one first, e.g. vamana snapshot save or -x with -d)\n"
      data_dir;
    exit 1
  end;
  let store = Store.open_file ~dir:data_dir () in
  report_recovery store;
  let doc = first_doc store in
  let parent =
    match Store.root_element_key doc store with
    | Some k -> k
    | None -> failwith "document has no root element"
  in
  (* materialised up front, so every write below must carry the synopsis
     by its path-count delta; checked against a rescan at the end *)
  ignore (Mass.Synopsis.for_store store);
  let inserted = Queue.create () in
  let i = ref 0 in
  while iters = 0 || !i < iters do
    incr i;
    let key =
      Store.insert_element store ~parent "churn"
        [ ("i", string_of_int !i) ]
        (Some (Printf.sprintf "payload-%d" !i))
    in
    Queue.push key inserted;
    if !i mod 3 = 0 then ignore (Store.delete_subtree store (Queue.pop inserted));
    if !i mod report = 0 then begin
      Printf.printf "churn: %d iterations, epoch %d, wal %d bytes\n" !i (Store.epoch store)
        (Option.value ~default:0 (Store.disk_wal_bytes store));
      flush stdout
    end
  done;
  (match Mass.Synopsis.verify store (Mass.Synopsis.for_store store) with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "churn: maintained synopsis check FAILED: %s\n" msg;
      exit 1);
  Store.close store;
  Printf.printf "churn: done, %d iterations, epoch %d\n" !i (Store.epoch store)

let churn_cmd =
  let dir =
    Arg.(required & opt (some string) None
         & info [ "d"; "data-dir" ] ~docv:"DIR" ~doc:"Existing durable store to churn.")
  in
  let iters =
    Arg.(value & opt int 0
         & info [ "iters" ] ~docv:"N" ~doc:"Stop after N updates (default: run until killed).")
  in
  let report =
    Arg.(value & opt int 100 & info [ "report" ] ~docv:"N" ~doc:"Progress line every N updates.")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Run a sustained insert/delete loop against a durable store — every epoch commits \
             through the WAL, so killing this process at any point must be recoverable \
             ($(b,vamana fsck) verifies).  A run that ends after $(b,--iters) checks the \
             path synopsis it maintained through every write against a rescan and exits 1 \
             on a mismatch.")
    Term.(const run_churn $ dir $ iters $ report)

(* ---- fsck: reopen, recover, and cross-check a durable store ---- *)

let fsck_corpus = [ "/*"; "//*"; "//text()"; "//*/*"; "//*[@i]"; "//churn/ancestor::*" ]

let run_fsck data_dir queries_file =
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> incr failures; Printf.printf "FAIL %s\n" m) fmt in
  let pass fmt = Printf.ksprintf (fun m -> Printf.printf "ok   %s\n" m) fmt in
  let store =
    try Store.open_file ~dir:data_dir ()
    with Storage.Disk.Corrupt msg ->
      Printf.printf "FAIL open: corrupt store: %s\n" msg;
      exit 1
  in
  report_recovery store;
  pass "open: %d document(s), %d records, epoch %d" (List.length (Store.documents store))
    (Store.total_records store) (Store.epoch store);
  (try
     Store.validate store;
     pass "validate: indexes and counters mutually consistent"
   with Failure msg -> fail "validate: %s" msg);
  let module S = Mass.Synopsis in
  (match S.verify store (S.for_store store) with
  | Ok () -> pass "synopsis: consistent with a fresh store scan"
  | Error msg -> fail "synopsis: %s" msg);
  let queries =
    match queries_file with
    | Some path -> List.filter is_query (read_queries (Some path))
    | None -> fsck_corpus
  in
  let doc = first_doc store in
  List.iter
    (fun q ->
      let run optimize =
        match Vamana.Engine.query ~optimize store ~context:doc.Store.doc_key q with
        | Ok r -> Ok (List.map Flex.to_string r.Vamana.Engine.keys)
        | Error msg -> Error msg
      in
      match (run true, run false) with
      | Ok a, Ok b when a = b -> pass "differential: %s (%d keys)" q (List.length a)
      | Ok a, Ok b -> fail "differential: %s — optimized %d keys, unoptimized %d" q
                        (List.length a) (List.length b)
      | Error m, Error _ -> pass "differential: %s (not executable: %s)" q m
      | Error m, Ok _ | Ok _, Error m -> fail "differential: %s — one mode errored: %s" q m)
    queries;
  (* flight recorder: informational, not a failure — a begin with no end
     names the query that was running when the process last died *)
  (match Storage.Flight.read_dir ~dir:data_dir with
  | [] -> ()
  | entries ->
      let ends =
        List.length
          (List.filter_map
             (function Storage.Flight.End e -> Some e | Storage.Flight.Begin _ -> None)
             entries)
      in
      pass "flight: %d completed query record(s) intact" ends;
      List.iter
        (fun (b : Storage.Flight.begin_record) ->
          Printf.printf "     in flight at crash: qid %d epoch %d %s\n" b.Storage.Flight.b_qid
            b.Storage.Flight.b_epoch b.Storage.Flight.b_source)
        (Storage.Flight.in_flight entries));
  Store.close store;
  if !failures > 0 then begin
    Printf.printf "fsck: %d check(s) FAILED\n" !failures;
    exit 1
  end
  else Printf.printf "fsck: all checks passed\n"

let fsck_cmd =
  let dir =
    Arg.(required & opt (some string) None
         & info [ "d"; "data-dir" ] ~docv:"DIR" ~doc:"Durable store to check.")
  in
  let queries_arg =
    Arg.(value & opt (some file) None
         & info [ "q"; "queries" ] ~docv:"FILE"
             ~doc:"Differential query corpus, one XPath per line (default: a built-in set).")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Reopen a durable store (running crash recovery), then cross-check the three \
             indexes, the path synopsis, and an optimized-vs-unoptimized query differential; \
             exits non-zero on any inconsistency")
    Term.(const run_fsck $ dir $ queries_arg)

(* ---- prove: small-scope bounded soundness prover ---- *)

let run_prove depth fanout tags texts max_nodes steps random random_depth seed json
    mutant_name list_mutants replay out =
  handle_parse_errors @@ fun () ->
  let module SC = Vamana.Smallcheck in
  let module J = Vamana.Profile.Json in
  if list_mutants then begin
    List.iter
      (fun m -> Printf.printf "%-22s expected check %s\n" (SC.subject_name m)
          (Option.value ~default:"-" (SC.subject_expected_check m)))
      SC.mutants;
    exit 0
  end;
  let subject_of_name name =
    match SC.find_mutant name with
    | Some m -> m
    | None ->
        Printf.eprintf "unknown mutant %S (see --list-mutants)\n" name;
        exit 2
  in
  let emit doc = if json then print_endline (J.to_string doc) in
  let write_out s =
    match out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc s;
        close_out oc
  in
  match replay with
  | Some path ->
      let ic = open_in path in
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      (match SC.replay_of_sexp src with
       | Error msg ->
           Printf.eprintf "replay parse error: %s\n" msg;
           exit 2
       | Ok (doc, query, mutant) ->
           (* --mutant overrides the subject recorded in the artifact *)
           let subject =
             Option.map subject_of_name
               (match mutant_name with Some _ -> mutant_name | None -> mutant)
           in
           let cxs = SC.check_pair ?subject ~doc ~query () in
           (match cxs with
            | [] ->
                if json then emit (J.Obj [ ("counterexamples", J.Arr []) ])
                else Printf.printf "replay: doc %s query %s — all checks pass\n" doc query;
                exit 0
            | cx :: _ ->
                if json then
                  emit (J.Obj [ ("counterexamples",
                                 J.Arr [ J.Obj [ ("check", J.Str cx.SC.cx_check);
                                                 ("detail", J.Str cx.SC.cx_detail) ] ]) ])
                else begin
                  Printf.printf "replay: counterexample reproduced\n";
                  print_string (SC.counterexample_to_sexp cx)
                end;
                exit 1))
  | None ->
      let bounds =
        { SC.depth = Option.value ~default:SC.default_bounds.SC.depth depth;
          fanout = Option.value ~default:SC.default_bounds.SC.fanout fanout;
          tags = Option.value ~default:SC.default_bounds.SC.tags tags;
          texts = Option.value ~default:SC.default_bounds.SC.texts texts;
          max_nodes = Option.value ~default:SC.default_bounds.SC.max_nodes max_nodes;
          steps = Option.value ~default:SC.default_bounds.SC.steps steps }
      in
      let random_bounds =
        { SC.ci_random_bounds with
          SC.depth = Option.value ~default:SC.ci_random_bounds.SC.depth random_depth }
      in
      let subject = Option.map subject_of_name mutant_name in
      let report = SC.prove ?subject ~random ~random_bounds ~seed bounds in
      if json then print_endline (J.to_string (SC.report_to_json report))
      else print_string (SC.report_to_string report);
      (match report.SC.rp_counterexamples with
       | [] -> ()
       | cx :: _ ->
           write_out (SC.counterexample_to_sexp cx);
           exit 1)

let prove_cmd =
  let module SC = Vamana.Smallcheck in
  let opt_int names docv doc =
    Arg.(value & opt (some int) None & info names ~docv ~doc)
  in
  let depth = opt_int [ "depth" ] "D" "Maximum element nesting depth (default 3)." in
  let fanout = opt_int [ "fanout" ] "F" "Maximum children per element (default 2)." in
  let tags = opt_int [ "tags" ] "K" "Tag alphabet size (default 2)." in
  let texts = opt_int [ "texts" ] "T" "Text-value domain size (default 1)." in
  let max_nodes = opt_int [ "max-nodes" ] "N" "Per-document node budget (default 4)." in
  let steps = opt_int [ "steps" ] "S" "Maximum location-path step count (default 2)." in
  let random =
    Arg.(value & opt int 0
         & info [ "random" ] ~docv:"N"
             ~doc:"Additionally check N randomized (document, plan) pairs drawn from deeper \
                   bounds than the exhaustive sweep.")
  in
  let random_depth =
    opt_int [ "random-depth" ] "D" "Element depth bound of the randomized layer (default 5)."
  in
  let seed =
    Arg.(value & opt int SC.ci_seed
         & info [ "seed" ] ~docv:"SEED" ~doc:"Seed of the randomized layer.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as a single JSON document.")
  in
  let mutant_arg =
    Arg.(value & opt (some string) None
         & info [ "mutant" ] ~docv:"NAME"
             ~doc:"Verify a seeded-unsoundness mutant instead of the real library (the prover \
                   proving itself): the run must produce counterexamples.")
  in
  let list_mutants_arg =
    Arg.(value & flag & info [ "list-mutants" ] ~doc:"List the mutant catalogue and exit.")
  in
  let replay_arg =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Re-check a single shrunk counterexample S-expression instead of sweeping.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the first counterexample's replayable S-expression to FILE.")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Small-scope soundness prover: exhaustively enumerate every XML document and \
             every XPath plan within small bounds and check rewrite-rule soundness, \
             analysis-claim soundness, and cost-model invariants on every pair. \
             Counterexamples are shrunk to a minimum and rendered as replayable \
             S-expressions. Exits non-zero if any counterexample is found.")
    Term.(const run_prove $ depth $ fanout $ tags $ texts $ max_nodes $ steps $ random
          $ random_depth $ seed $ json_arg $ mutant_arg $ list_mutants_arg $ replay_arg
          $ out_arg)

let () =
  let info = Cmd.info "vamana" ~version:"1.0.0" ~doc:"Cost-driven XPath engine over the MASS storage structure" in
  exit (Cmd.eval (Cmd.group info [ query_cmd; xquery_cmd; explain_cmd; lint_cmd; footprint_cmd; prove_cmd; synopsis_cmd; stats_cmd; generate_cmd; snapshot_cmd; churn_cmd; fsck_cmd; serve_cmd; health_cmd; events_cmd; trace_cmd; report_cmd ]))
