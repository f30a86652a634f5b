module Store = Mass.Store

let log_src = Logs.Src.create "vamana.engine" ~doc:"VAMANA engine facade"

module Log = (val Logs.src_log log_src)

type attribution = {
  attr_qid : int;
  attr_io : Storage.Stats.t;
  attr_wal_bytes : int;
  attr_fsyncs : int;
}

type result = {
  keys : Flex.t list;
  default_plan : Plan.op;
  executed_plan : Plan.op;
  optimizer : Optimizer.outcome option;
  compile_time : float;
  optimize_time : float;
  execute_time : float;
  io : Storage.Stats.t;
  spans : Profile.span list;
  profile : Profile.report option;
  attribution : attribution;
}

(* ---- per-query attribution ----

   Every execution runs under an [Obs] context carrying its query id,
   so events emitted anywhere below (pager evictions, WAL appends,
   fsyncs) attribute to the query that caused them.  A caller that
   already established a qid context (the service does) wins; otherwise
   a fresh id is minted here. *)

let current_qid () =
  match List.assoc_opt "qid" (Obs.context ()) with
  | Some (Obs.Int q) -> Some q
  | _ -> None

let with_qid f =
  match current_qid () with
  | Some q -> f q
  | None ->
      let q = Obs.fresh_query_id () in
      Obs.with_context [ ("qid", Obs.Int q) ] (fun () -> f q)

let disk_window store before =
  match (before, Store.disk_io store) with
  | Some b, Some live ->
      let d = Storage.Disk.diff_io live b in
      (d.Storage.Disk.wal_bytes_written, d.Storage.Disk.fsyncs)
  | _ -> (0, 0)

let scope_of_context context = if Flex.depth context = 0 then None else Some (Flex.prefix context 1)

(* a top-level union evaluates as independent plans whose result sets
   merge; each branch is optimized separately *)
let rec union_branches (e : Xpath.Ast.expr) =
  match e with
  | Xpath.Ast.Binop (Xpath.Ast.Union, a, b) -> (
      match (union_branches a, union_branches b) with
      | Some xs, Some ys -> Some (xs @ ys)
      | _ -> None)
  | Xpath.Ast.Path p -> Some [ p ]
  | _ -> None

type prepared = {
  source : string;
  slots : string array;
  default_plans : Plan.op list;  (** one per union branch *)
  executed_plans : Plan.op list;
  outcomes : Optimizer.outcome list option;
  tables : Cost.costed list;
  prep_report : Xpath.Typecheck.report;
  prep_footprint : Footprint.t;
  prep_scope : Flex.t option;
  prep_epoch : int;
  prep_compile_time : float;
  prep_optimize_time : float;
  prep_spans : Profile.span list;
}

(* one span per optimizer iteration, carrying the accepted rule and the
   considered/rejected counts of that iteration's search *)
let iteration_spans (o : Optimizer.outcome) =
  List.mapi
    (fun i (s : Optimizer.iteration_stat) ->
      Profile.span "optimize"
        ~meta:
          [ ("iteration", Profile.Json.Int (i + 1));
            ( "accepted",
              match s.Optimizer.accepted with
              | Some rule -> Profile.Json.Str rule
              | None -> Profile.Json.Null );
            ("considered", Profile.Json.Int s.Optimizer.considered);
            ("rejected", Profile.Json.Int s.Optimizer.rejected);
            ("property_rejected", Profile.Json.Int s.Optimizer.property_rejected) ]
        s.Optimizer.duration)
    o.Optimizer.iteration_stats

let prepare ?(optimize = true) ?(slots = [||]) store ~scope src =
  let parsed, parse_time =
    Obs.time (fun () ->
        match Xpath.Parser.parse_spanned src with
        | parsed -> Ok parsed
        | exception (Xpath.Parser.Error _ as exn) ->
            Error (Option.value ~default:"parse error" (Xpath.Parser.error_to_string exn)))
  in
  match parsed with
  | Error msg -> Error msg
  | Ok (ast, spans) -> (
      (* source-level static check against the path synopsis: runs before
         plan construction, so a schema-level emptiness proof suppresses
         the optimizer search and (context permitting) execution *)
      let prep_report, check_time =
        Obs.time (fun () ->
            let schema = Mass.Synopsis.schema (Mass.Synopsis.for_store store) ~scope in
            (* slotted literals are parameters: the report must hold for
               every value a later {!bind} substitutes *)
            Xpath.Typecheck.check ~schema ~spans ~opaque_literals:(slots <> [||]) ast)
      in
      let compiled, compile_only_time =
        Obs.time (fun () ->
            match ast with
            | Xpath.Ast.Path p -> Ok [ Compile.compile_path p ]
            | ast -> (
                (* not a single path: try a union of paths *)
                match union_branches ast with
                | Some paths -> Ok (List.map Compile.compile_path paths)
                | None -> Error "expression is not a location path or union of paths"))
      in
      match compiled with
      | Error msg -> Error msg
      | Ok default_plans ->
          let outcomes, optimize_time =
            if optimize && not prep_report.Xpath.Typecheck.rep_empty then
              let stats = Cost.synopsis_statistics store in
              let os, t =
                Obs.time (fun () ->
                    List.map (Optimizer.optimize ~stats store ~scope) default_plans)
              in
              (Some os, t)
            else (None, 0.0)
          in
          let executed_plans =
            match outcomes with
            | Some os -> List.map (fun (o : Optimizer.outcome) -> o.Optimizer.plan) os
            | None -> default_plans
          in
          let prep_spans =
            [ Profile.span "parse" parse_time;
              Profile.span "typecheck" check_time;
              Profile.span "compile" compile_only_time ]
            @ (match outcomes with
              | Some (o :: _) -> iteration_spans o
              | Some [] | None -> [])
          in
          let tables =
            match outcomes with
            | Some os -> List.map (fun (o : Optimizer.outcome) -> o.Optimizer.cost) os
            | None -> List.map (Cost.estimate store ~scope) executed_plans
          in
          let prep_footprint = Footprint.of_plans executed_plans in
          Ok
            { source = src; slots; default_plans; executed_plans; outcomes; tables; prep_report;
              prep_footprint; prep_scope = scope; prep_epoch = Store.epoch store;
              prep_compile_time = parse_time +. check_time +. compile_only_time;
              prep_optimize_time = optimize_time; prep_spans })

(* the equality pattern of a slot vector: which slots repeat an earlier
   slot's value.  A binding keeps a plan's pattern, so every literal
   occurrence maps back to exactly one slot *)
let same_pattern a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      if String.equal a.(i) a.(j) <> String.equal b.(i) b.(j) then ok := false
    done
  done;
  !ok

let bind store p ~source values =
  if values = p.slots then { p with source }
  else begin
    if not (same_pattern p.slots values) then
      invalid_arg "Engine.bind: the values do not match the prepared slots";
    let subst v =
      let rec find i =
        if i = Array.length p.slots then v
        else if String.equal p.slots.(i) v then values.(i)
        else find (i + 1)
      in
      find 0
    in
    let bound plans = List.map (Plan.map_literals subst) plans in
    let executed_plans = bound p.executed_plans in
    let scope = p.prep_scope in
    { p with
      source;
      slots = values;
      default_plans = bound p.default_plans;
      executed_plans;
      tables = List.map (Cost.estimate store ~scope) executed_plans;
      prep_footprint = Footprint.of_plans executed_plans }
  end

let rec floor_log2 n = if n <= 1 then 0 else 1 + floor_log2 (n lsr 1)

let slot_classes store ~scope values =
  Array.mapi
    (fun i v ->
      let rec earlier j =
        if j = i then None else if String.equal values.(j) v then Some j else earlier (j + 1)
      in
      match earlier 0 with
      | Some j -> -1 - j
      | None ->
          let tc = Store.text_value_count store ?scope v in
          if tc = 0 then 0 else 1 + floor_log2 tc)
    values

let emit_query_events store ~context p spans by_index_before =
  let doc_name =
    match Store.document_of_key store context with
    | Some d -> d.Store.doc_name
    | None -> ""
  in
  List.iter
    (fun (s : Profile.span) ->
      Obs.emit ~category:"query" s.Profile.name
        (("query", Obs.Str p.source)
         :: ("dur_ms", Obs.Float (s.Profile.dur *. 1000.))
         :: s.Profile.meta))
    spans;
  List.iter2
    (fun (name, before) (name', live) ->
      assert (String.equal name name');
      let d = Storage.Stats.diff live before in
      if d.Storage.Stats.logical_reads > 0 || d.Storage.Stats.physical_reads > 0 then
        Obs.emit ~category:"storage" "query_io"
          [ ("index", Obs.Str name);
            ("doc", Obs.Str doc_name);
            ("query", Obs.Str p.source);
            ("logical_reads", Obs.Int d.Storage.Stats.logical_reads);
            ("physical_reads", Obs.Int d.Storage.Stats.physical_reads);
            ("evictions", Obs.Int d.Storage.Stats.evictions);
            ("hit_ratio", Obs.Float (Storage.Stats.hit_ratio d)) ])
    by_index_before (Store.io_by_index store)

let execute_prepared ?(profile = false) store ~context p =
  with_qid @@ fun qid ->
  let pctx = if profile then Some (Profile.create store) else None in
  let observed = Obs.active () in
  let by_index_before =
    if observed then
      List.map (fun (n, s) -> (n, Storage.Stats.copy s)) (Store.io_by_index store)
    else []
  in
  let io_before = Storage.Stats.copy (Store.io_stats store) in
  let disk_before = Option.map Storage.Disk.copy_io (Store.disk_io store) in
  (* The typecheck walk interprets the query with the document node as
     context, so its emptiness proof only transfers when this execution
     really starts there (and the store hasn't moved since preparation). *)
  let schema_skip =
    p.prep_report.Xpath.Typecheck.rep_empty
    && p.prep_epoch = Store.epoch store
    && (match p.prep_scope with
       | Some dk -> Flex.equal dk context
       | None -> Flex.depth context = 0)
  in
  let keys, execute_time =
    Obs.time (fun () ->
        if schema_skip then begin
          if Obs.active () then
            Obs.emit ~category:"engine" "static_empty_skip"
              [ ("query", Obs.Str p.source); ("source", Obs.Str "synopsis") ];
          []
        end
        else
          match p.executed_plans with
          | [ plan ] -> Exec.run ?profile:pctx store ~context plan
          | plans ->
              (* union branches execute independently; the result sets merge *)
              List.sort_uniq Flex.compare
                (List.concat_map (Exec.run ?profile:pctx store ~context) plans))
  in
  let io = Storage.Stats.diff (Store.io_stats store) io_before in
  let spans = p.prep_spans @ [ Profile.span "execute" execute_time ] in
  if observed then emit_query_events store ~context p spans by_index_before;
  let profile_report =
    Option.map
      (fun ctx ->
        (* a union profiles every branch into one context; the annotated
           tree reports the first branch (matching the plan fields) *)
        let plan = List.hd p.executed_plans in
        let scope = scope_of_context context in
        let cost =
          match p.outcomes with
          | Some (o :: _) when o.Optimizer.plan == plan -> o.Optimizer.cost
          | Some _ ->
              (* a bound plan: cost it for its own literals, with the
                 statistics the optimizer used *)
              Cost.estimate ~stats:(Cost.synopsis_statistics store) store ~scope plan
          | None -> Cost.estimate store ~scope plan
        in
        Profile.make ctx ~cost ~spans ~total_time:execute_time plan)
      pctx
  in
  Log.debug (fun m ->
      m "%s: %d results, compile %.3fms opt %.3fms exec %.3fms, %d page reads" p.source
        (List.length keys) (p.prep_compile_time *. 1000.) (p.prep_optimize_time *. 1000.)
        (execute_time *. 1000.) io.Storage.Stats.logical_reads);
  let attribution =
    let wal, fs = disk_window store disk_before in
    { attr_qid = qid; attr_io = io; attr_wal_bytes = wal; attr_fsyncs = fs }
  in
  { keys;
    default_plan = List.hd p.default_plans;
    executed_plan = List.hd p.executed_plans;
    optimizer = Option.map List.hd p.outcomes;
    compile_time = p.prep_compile_time;
    optimize_time = p.prep_optimize_time;
    execute_time; io; spans; profile = profile_report; attribution }

let query ?optimize ?profile store ~context src =
  (* attribute over the whole prepare+execute window: optimizer and
     synopsis probe reads belong to the query that triggered them, so a
     single query's attributed counters sum to the Stats globals *)
  with_qid @@ fun qid ->
  let io_before = Storage.Stats.copy (Store.io_stats store) in
  let disk_before = Option.map Storage.Disk.copy_io (Store.disk_io store) in
  match prepare ?optimize store ~scope:(scope_of_context context) src with
  | Error _ as e -> e
  | Ok p ->
      let r = execute_prepared ?profile store ~context p in
      let wal, fs = disk_window store disk_before in
      let attribution =
        { attr_qid = qid;
          attr_io = Storage.Stats.diff (Store.io_stats store) io_before;
          attr_wal_bytes = wal;
          attr_fsyncs = fs }
      in
      Ok { r with attribution }

let query_doc ?optimize ?profile store doc src =
  query ?optimize ?profile store ~context:doc.Store.doc_key src

let query_store ?optimize store src =
  (* one pipeline per document; results concatenate in store order because
     document roots are ordered FLEX components *)
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | doc :: rest -> (
        match query_doc ?optimize store doc src with
        | Ok r -> go ((doc, r) :: acc) rest
        | Error msg ->
            Error
              (Printf.sprintf "document %S (doc %d, %d of %d succeeded): %s"
                 doc.Store.doc_name doc.Store.doc_id (List.length acc)
                 (List.length (Store.documents store)) msg))
  in
  go [] (Store.documents store)

let eval store ~context src =
  match Xpath.Parser.parse src with
  | exception (Xpath.Parser.Error _ as exn) ->
      Error (Option.value ~default:"parse error" (Xpath.Parser.error_to_string exn))
  | ast -> (
      match Nav.E.eval store ~context ast with
      | v -> Ok v
      | exception Xpath.Eval.Unsupported msg -> Error msg)

let materialize store keys = List.filter_map (Store.get store) keys

(* One branch's default and optimized plans, costed by Table I alone *)
let explain_plan ~optimize store ~scope ppf default_plan =
  let costed = Cost.estimate store ~scope default_plan in
  Format.fprintf ppf "Default plan:@.%a@." (Analysis.pp_annotated costed) default_plan;
  let final_table, final_plan =
    if optimize then begin
      let cleaned = Rewrite.apply_cleanup default_plan in
      if cleaned != default_plan then
        Format.fprintf ppf "applied cleanup: cost %d -> %d@."
          (Cost.total_output costed default_plan)
          (Cost.total_output (Cost.estimate store ~scope cleaned) cleaned);
      let o = Optimizer.optimize store ~scope cleaned in
      List.iter
        (fun (t : Optimizer.trace_entry) ->
          Format.fprintf ppf "applied %s at %s: cost %d -> %d@." t.Optimizer.rule
            t.Optimizer.target t.Optimizer.cost_before t.Optimizer.cost_after)
        o.Optimizer.trace;
      Format.fprintf ppf "Optimized plan (%d iterations):@.%a@." o.Optimizer.iterations
        (Analysis.pp_annotated o.Optimizer.cost) o.Optimizer.plan;
      (o.Optimizer.cost, o.Optimizer.plan)
    end
    else (costed, default_plan)
  in
  (if Analysis.statically_empty final_table final_plan then
     Format.fprintf ppf "Statically empty@.");
  Format.fprintf ppf "Footprint: %s@."
    (Footprint.to_string (Footprint.of_plan final_plan));
  (match Analysis.diagnostics final_table final_plan with
  | [] -> ()
  | ds ->
      Format.fprintf ppf "Diagnostics:@.";
      List.iter
        (fun d -> Format.fprintf ppf "  %s@." (Analysis.diagnostic_to_string d))
        ds)

let explain ?(optimize = true) store doc src =
  match Xpath.Parser.parse src with
  | exception (Xpath.Parser.Error _ as exn) ->
      Error (Option.value ~default:"parse error" (Xpath.Parser.error_to_string exn))
  | ast -> (
      match union_branches ast with
      | None -> Error "expression is not a location path or union of paths"
      | Some paths ->
          let scope = Some doc.Store.doc_key in
          let buf = Buffer.create 512 in
          let ppf = Format.formatter_of_buffer buf in
          let explain_path p = explain_plan ~optimize store ~scope ppf (Compile.compile_path p) in
          (match paths with
          | [ p ] -> explain_path p
          | _ ->
              List.iteri
                (fun i p ->
                  Format.fprintf ppf "Branch %d: %s@." (i + 1) (Xpath.Ast.path_to_string p);
                  explain_path p)
                paths);
          Format.pp_print_flush ppf ();
          Ok (Buffer.contents buf))

let explain_analyze ?(optimize = true) ?(json = false) store doc src =
  match query ~optimize ~profile:true store ~context:doc.Store.doc_key src with
  | Error _ as e -> e
  | Ok r -> (
      match r.profile with
      | None -> Error "profiling produced no report"
      | Some rep ->
          (* the profile's table: its bounds and verdicts read no
             synopsis, so they are the ones a fresh walk would give *)
          let table = rep.Profile.cost in
          let diagnostics = Analysis.diagnostics table r.executed_plan in
          if json then
            Ok
              (Profile.Json.to_string
                 (Profile.Json.Obj
                    [ ("query", Profile.Json.Str src);
                      ("results", Profile.Json.Int (List.length r.keys));
                      ("report", Profile.render_json rep);
                      ("analysis", Analysis.to_json table r.executed_plan diagnostics);
                      ("footprint", Footprint.to_json (Footprint.of_plan r.executed_plan));
                      ( "attribution",
                        let a = r.attribution in
                        Profile.Json.Obj
                          [ ("qid", Profile.Json.Int a.attr_qid);
                            ("pages_read", Profile.Json.Int a.attr_io.Storage.Stats.logical_reads);
                            ( "physical_reads",
                              Profile.Json.Int a.attr_io.Storage.Stats.physical_reads );
                            ("evictions", Profile.Json.Int a.attr_io.Storage.Stats.evictions);
                            ("wal_bytes", Profile.Json.Int a.attr_wal_bytes);
                            ("fsyncs", Profile.Json.Int a.attr_fsyncs) ] ) ]))
          else
            let props_section =
              Format.asprintf "Static properties:@.%a" (Analysis.pp_bounds table) r.executed_plan
            in
            let diag_section =
              match diagnostics with
              | [] -> ""
              | ds ->
                  "Diagnostics:\n"
                  ^ String.concat "\n"
                      (List.map (fun d -> "  " ^ Analysis.diagnostic_to_string d) ds)
                  ^ "\n"
            in
            let footprint_section =
              Printf.sprintf "Footprint: %s\n"
                (Footprint.to_string (Footprint.of_plan r.executed_plan))
            in
            let attr_section =
              let a = r.attribution in
              Printf.sprintf
                "Attributed I/O (qid %d): pages_read=%d physical_reads=%d evictions=%d wal_bytes=%d fsyncs=%d\n"
                a.attr_qid a.attr_io.Storage.Stats.logical_reads
                a.attr_io.Storage.Stats.physical_reads a.attr_io.Storage.Stats.evictions
                a.attr_wal_bytes a.attr_fsyncs
            in
            Ok
              (Printf.sprintf "Query: %s\n%d results\n%s%s%s%s%s" src (List.length r.keys)
                 (Profile.render_text rep) props_section diag_section footprint_section
                 attr_section))
