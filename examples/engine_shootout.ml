(* Engine shootout: one query, four evaluation strategies.

   Runs the same XPath query through VAMANA's index pipeline, the
   DOM-traversal baseline, the sequential-scan baseline and the
   structural-join baseline, verifying they return the same node set and
   reporting time and page I/O — a miniature of the paper's §VIII.

     dune exec examples/engine_shootout.exe -- [megabytes] [query] *)

module Store = Mass.Store

let () =
  let megabytes =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 1.0
  in
  let query =
    if Array.length Sys.argv > 2 then Sys.argv.(2) else "//person/address"
  in
  let store = Store.create ~pool_pages:8192 () in
  let tree = Xmark.generate megabytes in
  let doc = Store.load store ~name:"auction.xml" tree in
  Printf.printf "Document: %.1f MB scale (%d records)\nQuery: %s\n\n" megabytes
    (Store.total_records store) query;

  let show name result seconds reads =
    match result with
    | Ok ranks ->
        Printf.printf "%-22s %6d results  %9.2f ms%s\n" name (List.length ranks)
          (seconds *. 1000.)
          (match reads with Some n -> Printf.sprintf "  %8d page reads" n | None -> "")
    | Error e -> Printf.printf "%-22s failed: %s\n" name e
  in

  Store.reset_io_stats store;
  let vqp, t_vqp =
    Obs.time (fun () ->
        Result.map
          (fun (r : Vamana.Engine.result) -> List.map (Store.document_rank store) r.Vamana.Engine.keys)
          (Vamana.Engine.query ~optimize:false store ~context:doc.Store.doc_key query))
  in
  let vqp_reads = (Store.io_stats store).Storage.Stats.logical_reads in
  show "VAMANA (default plan)" vqp t_vqp (Some vqp_reads);

  Store.reset_io_stats store;
  let opt, t_opt =
    Obs.time (fun () ->
        Result.map
          (fun (r : Vamana.Engine.result) -> List.map (Store.document_rank store) r.Vamana.Engine.keys)
          (Vamana.Engine.query ~optimize:true store ~context:doc.Store.doc_key query))
  in
  let opt_reads = (Store.io_stats store).Storage.Stats.logical_reads in
  show "VAMANA (optimized)" opt t_opt (Some opt_reads);

  (* the DOM engine pays parse + build per query, as a file-based engine does *)
  let source = Xml.Writer.to_string tree in
  let dom, t_dom =
    Obs.time (fun () ->
        let d = Baselines.Dom_engine.create (Xml.Parser.parse source) in
        Baselines.Dom_engine.query_ranks d query)
  in
  show "DOM traversal" dom t_dom None;

  Store.reset_io_stats store;
  let scan, t_scan =
    Obs.time (fun () ->
        Baselines.Scan_engine.query_ranks (Baselines.Scan_engine.create store doc) query)
  in
  let scan_reads = (Store.io_stats store).Storage.Stats.logical_reads in
  show "Sequential scan" scan t_scan (Some scan_reads);

  Store.reset_io_stats store;
  let join, t_join =
    Obs.time (fun () ->
        match Baselines.Join_engine.create store doc with
        | j -> Baselines.Join_engine.query_ranks j query
        | exception Baselines.Join_engine.Document_too_large _ -> Error "document too large")
  in
  let join_reads = (Store.io_stats store).Storage.Stats.logical_reads in
  show "Structural join" join t_join (Some join_reads);

  (* agreement check across whatever succeeded *)
  let results = List.filter_map Result.to_option [ vqp; opt; dom; scan; join ] in
  match results with
  | first :: rest ->
      if List.for_all (fun r -> r = first) rest then
        Printf.printf "\nAll successful engines agree on the result set.\n"
      else Printf.printf "\nWARNING: engines disagree!\n"
  | [] -> Printf.printf "\nNo engine produced a result.\n"
