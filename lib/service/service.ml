module Store = Mass.Store
module Engine = Vamana.Engine

(* plan-cache key: query shape (normalized text, string literals lifted
   into slots) + rendered statistics scope + optimize flag + the slots'
   selectivity classes ({!Engine.slot_classes}).  The scope is part of
   the key because the optimizer consults scope-local statistics, so the
   same text optimized under two documents may yield different plans;
   the classes because a value predicate is costed by its literal's
   exact count, so one plan serves the literals of one class. *)
type plan_key = { shape : string; scope : string; optimized : bool; classes : int array }

(* [token] is the invalidation token the entry was computed under: the
   scope document's {!Mass.Store.doc_epoch} for document-scoped queries
   (so writes to other documents don't flush this entry), the global
   epoch for unscoped ones.  [fp] is the plan's read footprint: under
   footprint invalidation a token mismatch downgrades from "evict" to
   "intersect against the writes since [token]" — both epochs count the
   same store-wide mutation clock, so [token] is a valid [since] bound
   for {!Mass.Store.write_deltas} in either mode. *)
type result_entry = { token : int; fp : Vamana.Footprint.t; cached : Engine.result }

type cache = [ `Hit | `Miss | `Stale | `Bypass ]

type record = {
  r_qid : int;
  r_source : string;
  r_epoch : int;
  r_at : float;
  r_error : string option;
  r_plan_cache : cache;
  r_result_cache : cache;
  r_total_time : float;
  r_results : int;
  r_attribution : Engine.attribution;
  r_sampled : bool;
  r_drift : float;
  r_profile : Vamana.Profile.report option;
}

type invalidation = [ `Epoch | `Footprint ]

type t = {
  store : Store.t;
  optimize : bool;
  invalidation : invalidation;
  metrics : Metrics.t;
  plans : (plan_key, Engine.prepared) Lru.t;
      (* prepared once per key, with the first literals seen *)
  results : (string * string array * string, result_entry) Lru.t option;
      (* (shape, slot values, context): answers differ per literal *)
  slow_threshold : float;  (* seconds; [infinity] disables *)
  slow_log : record Queue.t;  (* bounded ring, oldest dropped *)
  flight : Storage.Flight.t option;
  health : Health.t;
}

(* the full counter schema, registered up front so snapshots always show
   every name (a counter never hit still renders as 0) *)
let counter_names =
  [ "queries"; "errors"; "compiles"; "compile_errors"; "result_keys"; "flushes";
    "plan_cache_hits"; "plan_cache_misses"; "plan_cache_evictions";
    "result_cache_hits"; "result_cache_misses"; "result_cache_stale";
    "result_cache_evictions"; "profiled_queries"; "optimizer_iterations";
    "optimizer_rules_accepted"; "optimizer_rules_rejected"; "optimizer_rules_considered";
    "optimizer_rules_property_rejected"; "slow_queries"; "sampled_executions";
    "adaptive_replans"; "plan_drift_events"; "result_cache_spared";
    "cache_invalidations_footprint"; "cache_invalidations_epoch"; "cache_invalidations_top";
    "drift_checks_skipped" ]

let default_slow_threshold = 0.1
let slow_log_capacity = 128

let create ?(plan_cache_capacity = 128) ?(result_cache_capacity = 512) ?(optimize = true)
    ?(invalidation = `Footprint) ?(slow_threshold = default_slow_threshold) ?flight
    ?(sample_every = Health.default_sample_every)
    ?(drift_threshold = Health.default_drift_threshold) store =
  let metrics = Metrics.create () in
  List.iter (fun name -> Metrics.inc ~by:0 metrics name) counter_names;
  {
    store;
    optimize;
    invalidation;
    metrics;
    plans = Lru.create ~capacity:plan_cache_capacity;
    results =
      (if result_cache_capacity = 0 then None
       else Some (Lru.create ~capacity:result_cache_capacity));
    slow_threshold;
    slow_log = Queue.create ();
    flight;
    health = Health.create ~sample_every ~drift_threshold ();
  }

let store t = t.store
let invalidation t = t.invalidation
let metrics t = t.metrics
let health t = t.health
let slow_queries t = List.of_seq (Queue.to_seq t.slow_log)

type outcome = {
  result : Engine.result;
  plan_cache : cache;
  result_cache : cache;
  total_time : float;
  attribution : Engine.attribution;
}

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* characters that can extend an NCName or number: whitespace between two
   of these is token-separating ("a div b", "person - 1") and must
   survive as one space; anywhere else it is insignificant and dropped,
   so "//person / address" keys identically to "//person/address" *)
let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

(* One pass over the query text.  Outside string literals whitespace is
   dropped except between two name/number characters, where one space
   survives.  With [lift], each complete string literal becomes the slot
   marker [$n] (1-based, source order) and its text is collected.  Not
   lifted: a literal right after [processing-instruction(] (a node-test
   name, not a value) and an unterminated literal, which is copied as
   written so the parser reports the same error.  A text with a [$]
   outside literals (an XPath variable, or a stray marker) is not lifted
   at all, so a shape with slots never contains a raw [$]. *)
let scan ~lift src =
  let n = String.length src in
  let buf = Buffer.create n in
  let slots = ref [] and nslots = ref 0 and dollar = ref false in
  let pi = "processing-instruction(" in
  let after_pi () =
    let b = Buffer.length buf and k = String.length pi in
    let rec same i = i = k || (Buffer.nth buf (b - k + i) = pi.[i] && same (i + 1)) in
    b >= k && same 0
  in
  let rec go i pending_space =
    if i < n then begin
      let c = src.[i] in
      if is_space c then go (i + 1) true
      else begin
        (if pending_space && Buffer.length buf > 0 then
           let last = Buffer.nth buf (Buffer.length buf - 1) in
           if is_name_char last && is_name_char c then Buffer.add_char buf ' ');
        if c = '\'' || c = '"' then
          match String.index_from_opt src (i + 1) c with
          | None -> Buffer.add_substring buf src i (n - i)
          | Some j ->
              if lift && not (after_pi ()) then begin
                slots := String.sub src (i + 1) (j - i - 1) :: !slots;
                incr nslots;
                Buffer.add_char buf '$';
                Buffer.add_string buf (string_of_int !nslots)
              end
              else Buffer.add_substring buf src i (j - i + 1);
              go (j + 1) false
        else begin
          if c = '$' then dollar := true;
          Buffer.add_char buf c;
          go (i + 1) false
        end
      end
    end
  in
  go 0 false;
  (Buffer.contents buf, Array.of_list (List.rev !slots), !dollar)

let normalize src =
  let text, _, _ = scan ~lift:false src in
  text

let shape src =
  match scan ~lift:true src with
  | _, _, true -> (normalize src, [||])
  | text, slots, false -> (text, slots)

let plan_key t ~scope shape classes =
  {
    shape;
    scope = (match scope with Some s -> Flex.to_string s | None -> "");
    optimized = t.optimize;
    classes;
  }

(* a slot's class as the health table shows it: the TC range it
   admits, or the earlier slot it repeats *)
let class_label i c =
  let slot = i + 1 in
  if c < 0 then Printf.sprintf "$%d=$%d" slot (-c)
  else if c <= 1 then Printf.sprintf "$%d:tc=%d" slot c
  else
    let lo = 1 lsl (c - 1) in
    Printf.sprintf "$%d:tc=%d..%d" slot lo ((2 * lo) - 1)

let key_label key =
  if key.classes = [||] then key.shape
  else
    Printf.sprintf "%s {%s}" key.shape
      (String.concat " " (Array.to_list (Array.mapi class_label key.classes)))

(* the plan key rendered for the health table (health records outlive
   plan-cache evictions, so they key on the same identity, not the
   cached artifact); 0x1f cannot appear in queries or rendered scopes *)
let health_key key =
  String.concat "\x1f"
    [ key.shape; key.scope; (if key.optimized then "O" else "U");
      String.concat "," (Array.to_list (Array.map string_of_int key.classes)) ]

let health_record t key =
  Health.record t.health ~key:(health_key key) ~query:(key_label key) ~scope:key.scope
    ~optimized:key.optimized

let health_of t ~context src =
  let scope = Engine.scope_of_context context in
  let shape, slots = shape src in
  let key = plan_key t ~scope shape (Engine.slot_classes t.store ~scope slots) in
  Health.find t.health (health_key key)

(* result-cache invalidation token: the scope document's own mutation
   epoch when the query is document-scoped — writes to other documents
   leave it unchanged — falling back to the store-wide epoch for
   unscoped queries or a scope that is no longer a document *)
let cache_token t ~scope =
  match scope with
  | Some s -> (
      match Store.document_of_key t.store s with
      | Some d -> Store.doc_epoch t.store d
      | None -> Store.epoch t.store)
  | None -> Store.epoch t.store

(* whole-plan estimate under current synopsis statistics vs the plan's
   compile-time costing: a ratio far from 1 means the statistics moved
   under the cached plan even before sampled actuals catch it.  [p] is
   the plan as prepared for its class, so the ratio measures statistics
   drift, not the difference between two literals of the class. *)
let estimate_drift t (p : Engine.prepared) =
  match (p.Engine.outcomes, p.Engine.executed_plans) with
  | Some (o :: _), plan :: _ ->
      let old_total = Vamana.Cost.total_output o.Vamana.Optimizer.cost plan in
      let now =
        Vamana.Cost.estimate
          ~stats:(Vamana.Cost.synopsis_statistics t.store)
          t.store ~scope:p.Engine.prep_scope plan
      in
      Health.clamp_q (Vamana.Profile.q_error ~est:old_total ~act:(Vamana.Cost.total_output now plan))
  | _ -> 1.0

(* Footprint drift-skip: the estimate ratio only moves when the
   statistics under the plan's footprint move.  When every write since
   an epoch the ratio is known at is provably disjoint from the
   footprint, the recomputation is a no-op — return the known value
   instead of re-walking the synopsis.  Two anchors, tried in order:
   the prepare epoch (known ratio 1.0 — the compile-time costing and a
   fresh estimate would read the same counts) and the last sample taken
   of this plan's health record (its recorded ratio). *)
let estimate_drift_for t hr (p : Engine.prepared) =
  let fp = p.Engine.prep_footprint in
  let disjoint_since anchor =
    anchor >= 0
    &&
    match Store.write_deltas t.store ~since:anchor with
    | None -> false
    | Some deltas -> List.for_all (fun d -> not (Vamana.Footprint.intersects fp d)) deltas
  in
  if t.invalidation = `Footprint && not (Vamana.Footprint.is_top fp) then
    if disjoint_since p.Engine.prep_epoch then begin
      Metrics.inc t.metrics "drift_checks_skipped";
      1.0
    end
    else if
      hr.Health.hr_last_epoch >= p.Engine.prep_epoch
      && disjoint_since hr.Health.hr_last_epoch
    then begin
      Metrics.inc t.metrics "drift_checks_skipped";
      match Health.last_sample hr with Some s -> s.Health.s_estimate_q | None -> 1.0
    end
    else estimate_drift t p
  else estimate_drift t p

(* fetch-or-prepare through the plan cache: the key's plan as prepared,
   and that plan bound to this query's literals *)
let prepared t ~scope key src slots =
  match Lru.find t.plans key with
  | Some p ->
      Metrics.inc t.metrics "plan_cache_hits";
      Ok (p, Engine.bind t.store p ~source:src slots, `Hit)
  | None -> (
      Metrics.inc t.metrics "plan_cache_misses";
      Metrics.inc t.metrics "compiles";
      match Engine.prepare ~optimize:t.optimize ~slots t.store ~scope src with
      | Error _ as e ->
          Metrics.inc t.metrics "compile_errors";
          e
      | Ok p ->
          Metrics.observe t.metrics "compile" p.Engine.prep_compile_time;
          if t.optimize then Metrics.observe t.metrics "optimize" p.Engine.prep_optimize_time;
          List.iter
            (fun (s : Vamana.Profile.span) ->
              match s.Vamana.Profile.name with
              | "parse" -> Metrics.observe t.metrics "parse" s.Vamana.Profile.dur
              | "optimize" -> Metrics.observe t.metrics "optimize_iteration" s.Vamana.Profile.dur
              | _ -> ())
            p.Engine.prep_spans;
          (match p.Engine.outcomes with
          | None -> ()
          | Some outcomes ->
              List.iter
                (fun (o : Vamana.Optimizer.outcome) ->
                  Metrics.inc ~by:o.Vamana.Optimizer.iterations t.metrics "optimizer_iterations";
                  Metrics.inc
                    ~by:(List.length o.Vamana.Optimizer.trace)
                    t.metrics "optimizer_rules_accepted";
                  List.iter
                    (fun (s : Vamana.Optimizer.iteration_stat) ->
                      Metrics.inc ~by:s.Vamana.Optimizer.considered t.metrics
                        "optimizer_rules_considered";
                      Metrics.inc ~by:s.Vamana.Optimizer.rejected t.metrics
                        "optimizer_rules_rejected";
                      Metrics.inc ~by:s.Vamana.Optimizer.property_rejected t.metrics
                        "optimizer_rules_property_rejected")
                    o.Vamana.Optimizer.iteration_stats)
                outcomes);
          if Lru.put t.plans key p <> None then Metrics.inc t.metrics "plan_cache_evictions";
          Ok (p, p, `Miss))

let execute t ~profile ~scope ~context rkey p =
  let result = Engine.execute_prepared ~profile t.store ~context p in
  Metrics.observe t.metrics "execute" result.Engine.execute_time;
  Metrics.inc ~by:(List.length result.Engine.keys) t.metrics "result_keys";
  if result.Engine.profile <> None then Metrics.inc t.metrics "profiled_queries";
  (match t.results with
  | None -> ()
  | Some cache ->
      let entry =
        { token = cache_token t ~scope; fp = p.Engine.prep_footprint; cached = result }
      in
      if Lru.put cache rkey entry <> None then
        Metrics.inc t.metrics "result_cache_evictions");
  result

let cache_tag = function
  | `Hit -> "hit"
  | `Miss -> "miss"
  | `Stale -> "stale"
  | `Bypass -> "bypass"

(* the one set of attributes every per-query event carries (the qid
   rides in the emission context) *)
let record_attrs r =
  let a = r.r_attribution in
  [ ("query", Obs.Str r.r_source);
    ("epoch", Obs.Int r.r_epoch);
    ("total_ms", Obs.Float (r.r_total_time *. 1000.));
    ("plan_cache", Obs.Str (cache_tag r.r_plan_cache));
    ("result_cache", Obs.Str (cache_tag r.r_result_cache));
    ("results", Obs.Int r.r_results);
    ("pages_read", Obs.Int a.Engine.attr_io.Storage.Stats.logical_reads);
    ("wal_bytes", Obs.Int a.Engine.attr_wal_bytes);
    ("fsyncs", Obs.Int a.Engine.attr_fsyncs);
    ("sampled", Obs.Bool r.r_sampled);
    ("profiled", Obs.Bool (r.r_profile <> None));
    ("drift", Obs.Float r.r_drift) ]
  @ match r.r_error with Some msg -> [ ("error", Obs.Str msg) ] | None -> []

let flight_end r =
  let a = r.r_attribution in
  { Storage.Flight.qid = r.r_qid;
    source = r.r_source;
    ok = r.r_error = None;
    cache = (if r.r_error = None then cache_tag r.r_result_cache else "error");
    latency_us = int_of_float (r.r_total_time *. 1e6);
    pages_read = a.Engine.attr_io.Storage.Stats.logical_reads;
    physical_reads = a.Engine.attr_io.Storage.Stats.physical_reads;
    wal_bytes = a.Engine.attr_wal_bytes;
    fsyncs = a.Engine.attr_fsyncs;
    results = r.r_results;
    epoch = r.r_epoch;
    at_ms = int_of_float (r.r_at *. 1000.);
    sampled = r.r_sampled;
    drift = r.r_drift }

(* publish one query's record: flight End frame, slow-query log, bus
   events.  A slow run that carried no operator tree elects its plan's
   next execution for profiling, so the caller pays for one run only. *)
let publish t hr r =
  Option.iter (fun fr -> Storage.Flight.record_end fr (flight_end r)) t.flight;
  let slow = r.r_error = None && r.r_total_time >= t.slow_threshold in
  if slow then begin
    Metrics.inc t.metrics "slow_queries";
    if Queue.length t.slow_log >= slow_log_capacity then ignore (Queue.pop t.slow_log);
    Queue.push r t.slow_log;
    if r.r_profile = None then Option.iter Health.sample_next hr
  end;
  if Obs.active () then begin
    let attrs = record_attrs r in
    match r.r_error with
    | Some _ -> Obs.emit ~severity:Obs.Error ~category:"service" "query_error" attrs
    | None ->
        if slow then Obs.emit ~severity:Obs.Warn ~category:"service" "slow_query" attrs;
        Obs.emit ~category:"service" "query" attrs
  end

let query ?(profile = false) t ~context src =
  (* the whole serve path runs under this query's id: every bus event
     below (engine spans, pager evictions, WAL appends) carries it, and
     the entry/exit I/O snapshots become the query's attributed use *)
  let qid = Obs.fresh_query_id () in
  Obs.with_context [ ("qid", Obs.Int qid) ] @@ fun () ->
  let io_before = Storage.Stats.copy (Store.io_stats t.store) in
  let disk_before = Option.map Storage.Disk.copy_io (Store.disk_io t.store) in
  (match t.flight with
  | Some fr -> Storage.Flight.record_begin fr ~qid ~epoch:(Store.epoch t.store) ~source:src
  | None -> ());
  (* [run] is the health record and sampler decision of a real
     execution; [None] for result-cache hits and errors *)
  let (served, plan_cache, result_cache, run), total_time =
    Obs.time (fun () ->
        Metrics.inc t.metrics "queries";
        let scope = Engine.scope_of_context context in
        let shape, slots = shape src in
        let rkey = (shape, slots, Flex.to_string context) in
        let cached_result =
          match t.results with
          | None -> `Bypass
          (* a profiled query must actually execute: a cached answer
             carries no (or a stale) operator profile *)
          | Some _ when profile -> `Bypass
          | Some cache -> (
              match Lru.find cache rkey with
              | Some entry when entry.token = cache_token t ~scope -> `Cached entry.cached
              | Some entry -> (
                  (* written under an older invalidation token: this
                     query's document (or, unscoped, the store) has
                     mutated since.  Under epoch invalidation that alone
                     evicts; under footprint invalidation the entry
                     survives if every write since is provably disjoint
                     from the plan's read footprint *)
                  let evict reason =
                    Lru.remove cache rkey;
                    Metrics.inc t.metrics "result_cache_stale";
                    Metrics.inc t.metrics ("cache_invalidations_" ^ reason);
                    `Stale
                  in
                  match t.invalidation with
                  | `Epoch -> evict "epoch"
                  | `Footprint -> (
                      if Vamana.Footprint.is_top entry.fp then evict "top"
                      else
                        match Store.write_deltas t.store ~since:entry.token with
                        | None ->
                            (* the delta ring no longer covers the
                               entry's window; only the epoch argument
                               remains *)
                            evict "epoch"
                        | Some deltas ->
                            (* a scoped entry only reads inside its
                               document, so other documents' deltas
                               cannot touch it (a delta without a
                               document attribution stays relevant) *)
                            let own_doc =
                              match scope with
                              | Some s ->
                                  Option.map
                                    (fun d -> d.Store.doc_id)
                                    (Store.document_of_key t.store s)
                              | None -> None
                            in
                            let relevant d =
                              match (own_doc, d.Store.wd_doc) with
                              | Some id, Some wid -> wid = id
                              | _, _ -> true
                            in
                            if
                              List.for_all
                                (fun d ->
                                  (not (relevant d))
                                  || not (Vamana.Footprint.intersects entry.fp d))
                                deltas
                            then begin
                              (* provably untouched: refresh the token so
                                 the next lookup fast-paths again *)
                              ignore
                                (Lru.put cache rkey
                                   { entry with token = cache_token t ~scope });
                              Metrics.inc t.metrics "result_cache_spared";
                              `Cached entry.cached
                            end
                            else evict "footprint"))
              | None -> `Miss)
        in
        match cached_result with
        | `Cached result ->
            Metrics.inc t.metrics "result_cache_hits";
            (Ok result, `Hit, `Hit, None)
        | (`Bypass | `Stale | `Miss) as status ->
            if status <> `Bypass then Metrics.inc t.metrics "result_cache_misses";
            let result_cache = (status :> cache) in
            let key =
              plan_key t ~scope shape (Engine.slot_classes t.store ~scope slots)
            in
            let hr = health_record t key in
            (* adaptive replan: when the drift detector marked this plan
               stale, drop the cached plan and re-prepare against fresh
               statistics — the plan-cache disposition reads [`Stale] *)
            let replanning = Health.stale hr in
            if replanning then begin
              Lru.remove t.plans key;
              Metrics.inc t.metrics "adaptive_replans"
            end;
            match prepared t ~scope key src slots with
            | Error msg ->
                Metrics.inc t.metrics "errors";
                (Error msg, (if replanning then `Stale else `Miss), result_cache, None)
            | Ok (class_plan, p, plan_cache) ->
                let plan_cache = if replanning then `Stale else plan_cache in
                if replanning then Health.note_replan t.health hr ~epoch:(Store.epoch t.store);
                (* the always-on sampler: every Nth execution of this
                   plan runs instrumented and feeds the drift detector *)
                let sampled = Health.note_execution t.health hr in
                if sampled then Metrics.inc t.metrics "sampled_executions";
                let result = execute t ~profile:(profile || sampled) ~scope ~context rkey p in
                (match result.Engine.profile with
                | Some rep ->
                    if
                      Health.observe t.health hr ~epoch:(Store.epoch t.store)
                        ~latency:result.Engine.execute_time
                        ~pages:result.Engine.io.Storage.Stats.logical_reads
                        ~results:(List.length result.Engine.keys)
                        ~estimate_q:(estimate_drift_for t hr class_plan) rep
                    then Metrics.inc t.metrics "plan_drift_events"
                | None -> ());
                (Ok result, plan_cache, result_cache, Some (hr, sampled)))
  in
  Metrics.observe t.metrics "query" total_time;
  (* service-window attribution: covers prepare (on plan-cache misses)
     and execute, so a single query's counters sum to the Stats globals *)
  let attr_io = Storage.Stats.diff (Store.io_stats t.store) io_before in
  let attr_wal_bytes, attr_fsyncs = Engine.disk_window t.store disk_before in
  let attribution = { Engine.attr_qid = qid; attr_io; attr_wal_bytes; attr_fsyncs } in
  let results, profile =
    match (served, run) with
    | Ok result, Some _ -> (List.length result.Engine.keys, result.Engine.profile)
    | Ok result, None -> (List.length result.Engine.keys, None)
    | Error _, _ -> (0, None)
  in
  publish t (Option.map fst run)
    { r_qid = qid;
      r_source = src;
      r_epoch = Store.epoch t.store;
      r_at = Unix.gettimeofday ();
      r_error = (match served with Ok _ -> None | Error msg -> Some msg);
      r_plan_cache = plan_cache;
      r_result_cache = result_cache;
      r_total_time = total_time;
      r_results = results;
      r_attribution = attribution;
      r_sampled = (match run with Some (_, sampled) -> sampled | None -> false);
      r_drift = (match run with Some (hr, _) -> hr.Health.hr_drift | None -> 0.0);
      r_profile = profile };
  Result.map (fun result -> { result; plan_cache; result_cache; total_time; attribution }) served

let query_doc ?profile t doc src = query ?profile t ~context:doc.Store.doc_key src

let plan_cache_length t = Lru.length t.plans
let result_cache_length t = match t.results with None -> 0 | Some c -> Lru.length c

let flush t =
  Lru.clear t.plans;
  (match t.results with Some c -> Lru.clear c | None -> ());
  Metrics.inc t.metrics "flushes"

let snapshot_text t = Metrics.render_text ~io:(Store.io_stats t.store) t.metrics
let snapshot_json t = Metrics.render_json ~io:(Store.io_stats t.store) t.metrics
