(* Service-level benchmark for the VAMANA engine.

     main.exe --workload read_exec|read_adhoc|churn_disk --seed N --seconds S --trace 0|1
     main.exe --selftest

   One closed-loop client in one process drives Service.query (and, on
   churn_disk, Store.insert_element / Store.delete_subtree) for S seconds.
   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   runs the same seeded stream once untraced and once traced and prints
   the per-layer ledger.  Every layer is measured from outside: spans
   around the public calls, the fields of each Service.outcome, public
   counters (Store.io_stats / io_by_index / disk_io, Service.metrics,
   Gc) and one profiled execution per distinct plan after the window.
   Answers are checked after the window against a replay of the stream
   on a fresh cache-less store, evaluated with unoptimised plans.  The
   last stdout line is one JSON object: correct, attempted, failed,
   metrics. *)

module Store = Mass.Store
module Svc = Vamana_service.Service
module Stats = Storage.Stats
module Disk = Storage.Disk
module Profile = Vamana.Profile
module J = Profile.Json
open Workload

type limit = Seconds of float | Ops of int

(* ---- traced counters ---- *)

let zero_disk () =
  { Disk.wal_records = 0; wal_bytes_written = 0; fsyncs = 0; data_reads = 0; data_read_bytes = 0;
    data_writes = 0; data_write_bytes = 0; checkpoints = 0 }

let add_stats (into : Stats.t) (d : Stats.t) =
  into.Stats.logical_reads <- into.Stats.logical_reads + d.Stats.logical_reads;
  into.Stats.physical_reads <- into.Stats.physical_reads + d.Stats.physical_reads;
  into.Stats.page_writes <- into.Stats.page_writes + d.Stats.page_writes;
  into.Stats.evictions <- into.Stats.evictions + d.Stats.evictions;
  into.Stats.allocations <- into.Stats.allocations + d.Stats.allocations;
  into.Stats.write_back_bytes <- into.Stats.write_back_bytes + d.Stats.write_back_bytes;
  into.Stats.fsyncs <- into.Stats.fsyncs + d.Stats.fsyncs

let add_disk (into : Disk.io) (d : Disk.io) =
  into.Disk.wal_records <- into.Disk.wal_records + d.Disk.wal_records;
  into.Disk.wal_bytes_written <- into.Disk.wal_bytes_written + d.Disk.wal_bytes_written;
  into.Disk.fsyncs <- into.Disk.fsyncs + d.Disk.fsyncs;
  into.Disk.data_reads <- into.Disk.data_reads + d.Disk.data_reads;
  into.Disk.data_read_bytes <- into.Disk.data_read_bytes + d.Disk.data_read_bytes;
  into.Disk.data_writes <- into.Disk.data_writes + d.Disk.data_writes;
  into.Disk.data_write_bytes <- into.Disk.data_write_bytes + d.Disk.data_write_bytes;
  into.Disk.checkpoints <- into.Disk.checkpoints + d.Disk.checkpoints

(* totals over the spans of one kind of operation (queries or updates) *)
type acc = {
  mutable n : int;
  mutable time : float;  (* seconds inside the public call *)
  mutable prep : float;  (* prepare time this call paid *)
  mutable parse : float;
  mutable typecheck : float;
  mutable compile : float;
  mutable optimize : float;
  mutable exec : float;  (* execute time this call paid *)
  mutable results : int;
  io : Stats.t;
  by_index : (string, Stats.t) Hashtbl.t;
  disk : Disk.io;
  mutable minor_words : float;
  mutable flight_bytes : int;
}

let new_acc () =
  { n = 0; time = 0.; prep = 0.; parse = 0.; typecheck = 0.; compile = 0.; optimize = 0.;
    exec = 0.; results = 0; io = Stats.create (); by_index = Hashtbl.create 3;
    disk = zero_disk (); minor_words = 0.; flight_bytes = 0 }

let flight_sizes dir =
  let size name =
    match Unix.stat (Filename.concat dir name) with
    | st -> st.Unix.st_size
    | exception Unix.Unix_error _ -> 0
  in
  (size Storage.Flight.file_name, size (Storage.Flight.file_name ^ ".1"))

type snap = {
  s_io : Stats.t;
  s_idx : (string * Stats.t) list;
  s_disk : Disk.io option;
  s_minor : float;
  s_flight : int * int;
}

let snapshot (s : served) =
  let store = s.env.store in
  { s_io = Store.io_stats store;
    s_idx = List.map (fun (n, st) -> (n, Stats.copy st)) (Store.io_by_index store);
    s_disk = Option.map Disk.copy_io (Store.disk_io store);
    s_minor = Gc.minor_words ();
    s_flight = (match (s.flight, s.env.dir) with Some _, Some d -> flight_sizes d | _ -> (0, 0)) }

(* charge the counters moved between two snapshots to [acc] *)
let charge acc before after =
  add_stats acc.io (Stats.diff after.s_io before.s_io);
  List.iter2
    (fun (name, b) (_, a) ->
      let into =
        match Hashtbl.find_opt acc.by_index name with
        | Some st -> st
        | None ->
            let st = Stats.create () in
            Hashtbl.replace acc.by_index name st;
            st
      in
      add_stats into (Stats.diff a b))
    before.s_idx after.s_idx;
  (match (before.s_disk, after.s_disk) with
  | Some b, Some a -> add_disk acc.disk (Disk.diff_io a b)
  | _ -> ());
  acc.minor_words <- acc.minor_words +. (after.s_minor -. before.s_minor);
  let (log0, _), (log1, rot1) = (before.s_flight, after.s_flight) in
  (* a rotation renames the log (plus the record that tipped it) to .1 *)
  acc.flight_bytes <- acc.flight_bytes + (if log1 >= log0 then log1 - log0 else log1 + rot1 - log0)

(* ---- one measured window ---- *)

let service_counters =
  [ "queries"; "plan_cache_hits"; "plan_cache_misses"; "result_cache_hits";
    "result_cache_misses"; "result_cache_spared"; "cache_invalidations_footprint";
    "cache_invalidations_epoch"; "cache_invalidations_top"; "sampled_executions";
    "adaptive_replans"; "compiles"; "optimizer_iterations"; "optimizer_rules_considered" ]

let counters (s : served) =
  let m = Svc.metrics s.service in
  List.map (fun n -> (n, Vamana_service.Metrics.counter m n)) service_counters

(* The answers served for one (query text, store epoch) pair: the first
   result hash, and how many reads agreed and disagreed with it. *)
type answer = { hash : int; mutable agree : int; mutable disagree : int }

let new_answers () : (string * int, answer) Hashtbl.t = Hashtbl.create 256

let record answers key hash =
  match Hashtbl.find_opt answers key with
  | None -> Hashtbl.replace answers key { hash; agree = 1; disagree = 0 }
  | Some a -> if a.hash = hash then a.agree <- a.agree + 1 else a.disagree <- a.disagree + 1

let mix h x = (h * 1_000_003) + x

type window = {
  attempted : int;
  stream_digest : int;  (* order-sensitive hash of the operations issued *)
  answer_digest : int;  (* order-sensitive hash of the answers served *)
  elapsed : float;
  query_lat : Measure.Samples.t;
  update_lat : Measure.Samples.t;
  failed : int;  (* Error outcomes and exceptions *)
  q : acc;  (* traced only *)
  u : acc;  (* traced only *)
  svc : (string * int) list;  (* Service.metrics counter deltas *)
  disk_window : Disk.io;
  major_collections : int;
  executions : (string, int) Hashtbl.t;  (* traced: paid executions per query text *)
}

(* an order-sensitive hash of a result's key list *)
let hash_keys keys = List.fold_left (fun h k -> mix h (Hashtbl.hash k)) 17 keys

(* Run one closed-loop window, recording every answer in [answers]. *)
let run_window ~trace ~limit ~answers cfg ~seed (s : served) =
  let next = stream cfg ~seed in
  let context = s.env.doc.Store.doc_key in
  let q = new_acc () and u = new_acc () in
  let query_lat = Measure.Samples.create () and update_lat = Measure.Samples.create () in
  let executions = Hashtbl.create 64 in
  let n = ref 0 and failed = ref 0 and stream_digest = ref 0 and answer_digest = ref 0 in
  (* every window starts from a compacted heap: set-up garbage (the
     generated document tree) is not swept on the measured clock *)
  Gc.compact ();
  let svc0 = counters s in
  let disk0 = Option.map Disk.copy_io (Store.disk_io s.env.store) in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let start = Measure.now () in
  let finished () =
    match limit with
    | Ops k -> !n >= k
    | Seconds sec -> Measure.now () -. start >= sec
  in
  while not (finished ()) do
    let op = next () in
    incr n;
    stream_digest := mix !stream_digest (Hashtbl.hash op);
    let before = if trace then Some (snapshot s) else None in
    let settle acc dt =
      match before with
      | Some b ->
          acc.n <- acc.n + 1;
          acc.time <- acc.time +. dt;
          charge acc b (snapshot s)
      | None -> ()
    in
    match op with
    | Read text -> (
        let epoch = Workload.epoch s.env in
        let t0 = Measure.now () in
        let r = try Svc.query s.service ~context text with e -> Error (Printexc.to_string e) in
        let dt = Measure.now () -. t0 in
        Measure.Samples.add query_lat dt;
        settle q dt;
        match r with
        | Error _ -> incr failed
        | Ok o ->
            let keys = o.Svc.result.Vamana.Engine.keys in
            let h = hash_keys keys in
            record answers (text, epoch) h;
            answer_digest := mix !answer_digest h;
            if trace then begin
              let res = o.Svc.result in
              q.results <- q.results + List.length keys;
              (* on a result-cache hit the recorded phase times belong to
                 the run that filled the cache, and on a plan-cache hit the
                 prepare times to the call that prepared the plan *)
              if o.Svc.result_cache <> `Hit then begin
                q.exec <- q.exec +. res.Vamana.Engine.execute_time;
                Hashtbl.replace executions text
                  (1 + Option.value ~default:0 (Hashtbl.find_opt executions text))
              end;
              if o.Svc.plan_cache <> `Hit && o.Svc.result_cache <> `Hit then begin
                q.prep <- q.prep +. res.Vamana.Engine.compile_time +. res.Vamana.Engine.optimize_time;
                List.iter
                  (fun (sp : Profile.span) ->
                    let d = sp.Profile.dur in
                    match sp.Profile.name with
                    | "parse" -> q.parse <- q.parse +. d
                    | "typecheck" -> q.typecheck <- q.typecheck +. d
                    | "compile" -> q.compile <- q.compile +. d
                    | "optimize" -> q.optimize <- q.optimize +. d
                    | _ -> ())
                  res.Vamana.Engine.spans
              end
            end)
    | Insert_pad | Insert_person _ | Delete _ ->
        let t0 = Measure.now () in
        let ok = try Workload.write s.env op; true with _ -> false in
        let dt = Measure.now () -. t0 in
        Measure.Samples.add update_lat dt;
        settle u dt;
        if not ok then incr failed
  done;
  let elapsed = Measure.now () -. start in
  let svc1 = counters s in
  { attempted = !n;
    stream_digest = !stream_digest;
    answer_digest = !answer_digest;
    elapsed;
    query_lat;
    update_lat;
    failed = !failed;
    q;
    u;
    svc = List.map2 (fun (name, a) (_, b) -> (name, b - a)) svc0 svc1;
    disk_window =
      (match (disk0, Store.disk_io s.env.store) with
      | Some a, Some b -> Disk.diff_io b a
      | _ -> zero_disk ());
    major_collections = (Gc.quick_stat ()).Gc.major_collections - major0;
    executions }

let queries w = Measure.Samples.length w.query_lat
let updates w = Measure.Samples.length w.update_lat

(* ---- answer verification ---- *)

let max_checked_pairs = 160

(* Check the answers outside the timed window.  Every read of one
   (query, epoch) pair must hash alike; a seeded sample of the pairs is
   then re-evaluated on a fresh store with no caches, replaying the same
   operation stream, using the unoptimised plan.  Returns the number of
   wrong reads and the number of pairs re-evaluated. *)
let verify cfg ~seed ~n_ops answers =
  let inconsistent = Hashtbl.fold (fun _ a acc -> acc + a.disagree) answers 0 in
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) answers []) in
  let chosen = Hashtbl.create 256 in
  (let rng = Random.State.make [| seed; 0xc4ec |] in
   let a = Array.of_list keys in
   for i = Array.length a - 1 downto 1 do
     let j = Random.State.int rng (i + 1) in
     let t = a.(i) in
     a.(i) <- a.(j);
     a.(j) <- t
   done;
   Array.iteri (fun i k -> if i < max_checked_pairs then Hashtbl.replace chosen k ()) a);
  let env = reference_store cfg ~seed in
  let next = stream cfg ~seed in
  let wrong = ref 0 and checked = ref 0 in
  for _ = 1 to n_ops do
    match next () with
    | Read text ->
        let key = (text, Workload.epoch env) in
        if Hashtbl.mem chosen key then begin
          Hashtbl.remove chosen key;
          incr checked;
          let a = Hashtbl.find answers key in
          match Vamana.Engine.query ~optimize:false env.store ~context:env.doc.Store.doc_key text with
          | Ok r when hash_keys r.Vamana.Engine.keys = a.hash -> ()
          | Ok _ | Error _ -> wrong := !wrong + a.agree
        end
    | op -> ( try Workload.write env op with _ -> ())
  done;
  Store.close env.store;
  (inconsistent + !wrong, !checked)

(* ---- profiled executions, one per distinct plan ---- *)

type prof = {
  mutable weight : float;  (* executions represented *)
  mutable p_results : float;
  mutable tuples : float;
  mutable next_calls : float;
  mutable cursor_opens : float;
  mutable step_self : float;
  mutable pred_self : float;
}

let max_profiled = 256

(* Run each of the most executed query texts once with ~profile:true,
   weighting its operator counts by how often it executed in the window.
   Operators reached through a predicate edge count as predicate work,
   the rest (the step spine and its contexts) as step work. *)
let profile_pass (s : served) executions =
  let ranked =
    List.sort
      (fun (qa, a) (qb, b) -> if a <> b then compare b a else String.compare qa qb)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) executions [])
  in
  let p =
    { weight = 0.; p_results = 0.; tuples = 0.; next_calls = 0.; cursor_opens = 0.;
      step_self = 0.; pred_self = 0. }
  in
  let store = s.env.store and context = s.env.doc.Store.doc_key in
  List.iteri
    (fun i (text, count) ->
      if i < max_profiled then
        match Vamana.Engine.prepare store ~scope:(Vamana.Engine.scope_of_context context) text with
        | Error _ -> ()
        | Ok prepared -> (
            let r = Vamana.Engine.execute_prepared ~profile:true store ~context prepared in
            match r.Vamana.Engine.profile with
            | None -> ()
            | Some rep ->
                let w = float_of_int count in
                p.weight <- p.weight +. w;
                p.p_results <- p.p_results +. (w *. float_of_int (List.length r.Vamana.Engine.keys));
                let rec walk ~pred (node : Profile.node) =
                  Option.iter
                    (fun (sl : Profile.slot) ->
                      p.tuples <- p.tuples +. (w *. float_of_int sl.Profile.tuples);
                      p.next_calls <- p.next_calls +. (w *. float_of_int sl.Profile.next_calls);
                      p.cursor_opens <- p.cursor_opens +. (w *. float_of_int sl.Profile.cursor_opens);
                      if pred then p.pred_self <- p.pred_self +. (w *. sl.Profile.self_time)
                      else p.step_self <- p.step_self +. (w *. sl.Profile.self_time))
                    node.Profile.act;
                  List.iter (fun (_, n) -> walk ~pred:true n) node.Profile.preds;
                  Option.iter (walk ~pred) node.Profile.context
                in
                walk ~pred:false rep.Profile.plan))
    ranked;
  p

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value =
  { name; value = (if Float.is_finite value then value else 0.); unit_; note }

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let pct_metric name (samples : Measure.Samples.t) p =
  match Measure.percentile (Measure.Samples.sorted samples) p with
  | None -> metric ~note:"no samples" name "ms" 0.
  | Some r ->
      metric
        ~note:(Printf.sprintf "p%g of %d samples, %d beyond" r.Measure.p r.Measure.n r.Measure.beyond)
        name "ms" (r.Measure.value *. 1000.)

let heap_peak_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let end_to_end ~setups w =
  [ metric
      ~note:
        (Printf.sprintf "median of %d set-ups: %s s" (List.length setups)
           (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev setups))))
      "setup_s" "s" (Measure.median setups);
    metric
      ~note:(Printf.sprintf "%d queries, %d updates in %.2f s" (queries w) (updates w) w.elapsed)
      "qps" "1/s"
      (fi (queries w) /. w.elapsed);
    pct_metric "query_p99_ms" w.query_lat 99.;
    metric "heap_peak_mb" "MB" (heap_peak_mb ()) ]

let per_layer ~untraced w (p : prof) =
  let q = w.q and u = w.u in
  let nq = fi (max 1 q.n) and nu = fi u.n in
  let c name = fi (List.assoc name w.svc) in
  let executions = c "queries" -. c "result_cache_hits" in
  let per_kq name = 1000. *. ratio (c name) nq in
  let idx name =
    match Hashtbl.find_opt q.by_index name with Some st -> fi st.Stats.logical_reads | None -> 0.
  in
  let ms x = 1000. *. x /. nq in
  let qps_traced = fi (queries w) /. w.elapsed in
  let qps_plain = fi (queries untraced) /. untraced.elapsed in
  let self_total = p.step_self +. p.pred_self in
  [ metric "service.self_ms" "ms" (ms (q.time -. q.prep -. q.exec));
    metric "service.plan_hit_ratio" "ratio"
      (ratio (c "plan_cache_hits") (c "plan_cache_hits" +. c "plan_cache_misses"));
    metric "service.result_hit_ratio" "ratio"
      (ratio (c "result_cache_hits") (c "result_cache_hits" +. c "result_cache_misses"));
    metric "service.spared_per_kq" "count/kq" (per_kq "result_cache_spared");
    metric "service.evict_footprint_per_kq" "count/kq" (per_kq "cache_invalidations_footprint");
    metric "service.evict_epoch_per_kq" "count/kq" (per_kq "cache_invalidations_epoch");
    metric "service.evict_top_per_kq" "count/kq" (per_kq "cache_invalidations_top");
    metric "service.sampled_ratio" "ratio" (ratio (c "sampled_executions") executions);
    metric "service.replans" "count" (c "adaptive_replans");
    metric "prepare.ms" "ms" (ms q.prep);
    metric "prepare.share" "ratio" (ratio q.prep q.time);
    metric "prepare.parse_ms" "ms" (ms q.parse);
    metric "prepare.typecheck_ms" "ms" (ms q.typecheck);
    metric "prepare.compile_ms" "ms" (ms q.compile);
    metric "prepare.optimize_ms" "ms" (ms q.optimize);
    metric "prepare.optimizer_iterations" "count/plan" (ratio (c "optimizer_iterations") (c "compiles"));
    metric "prepare.rules_considered" "count/plan"
      (ratio (c "optimizer_rules_considered") (c "compiles"));
    metric "exec.ms" "ms" (ms q.exec);
    metric "exec.share" "ratio" (ratio q.exec q.time);
    metric "exec.tuples_per_result" "count" (ratio p.tuples p.p_results);
    metric "exec.next_calls_per_result" "count" (ratio p.next_calls p.p_results);
    metric "exec.cursor_opens_per_query" "count" (ratio p.cursor_opens p.weight);
    metric "exec.step_self_share" "ratio" (ratio p.step_self self_total);
    metric "exec.pred_self_share" "ratio" (ratio p.pred_self self_total);
    metric "store.reads_per_query" "pages/query" (ratio (fi q.io.Stats.logical_reads) nq);
    metric "store.reads_per_result" "pages/result"
      (ratio (fi q.io.Stats.logical_reads) (fi q.results));
    metric "store.reads.doc_index" "pages/query" (idx "doc_index" /. nq);
    metric "store.reads.name_index" "pages/query" (idx "name_index" /. nq);
    metric "store.reads.value_index" "pages/query" (idx "value_index" /. nq);
    metric "store.page_writes_per_update" "pages/update" (ratio (fi u.io.Stats.page_writes) nu);
    metric "pager.hit_ratio" "ratio" (Stats.hit_ratio q.io);
    metric "pager.misses_per_query" "pages/query" (ratio (fi q.io.Stats.physical_reads) nq);
    metric "pager.evictions_per_query" "pages/query" (ratio (fi q.io.Stats.evictions) nq);
    metric "pager.write_back_bytes_per_update" "B/update"
      (ratio (fi u.io.Stats.write_back_bytes) nu);
    metric "disk.preads_per_query" "count/query" (ratio (fi q.disk.Disk.data_reads) nq);
    metric "disk.read_bytes_per_query" "B/query" (ratio (fi q.disk.Disk.data_read_bytes) nq);
    metric "disk.wal_bytes_per_update" "B/update" (ratio (fi u.disk.Disk.wal_bytes_written) nu);
    metric "disk.fsyncs_per_update" "count/update" (ratio (fi u.disk.Disk.fsyncs) nu);
    metric "disk.checkpoints" "count" (fi w.disk_window.Disk.checkpoints);
    metric "flight.bytes_per_query" "B/query" (ratio (fi q.flight_bytes) nq);
    metric "gc.minor_words_per_query" "words/query" (q.minor_words /. nq);
    metric "gc.major_collections" "count" (fi w.major_collections);
    metric
      ~note:(Printf.sprintf "untraced %.1f q/s, traced %.1f q/s" qps_plain qps_traced)
      "trace.overhead_pct" "%"
      (100. *. (ratio qps_plain qps_traced -. 1.));
    (* from the untraced window, like the end-to-end metrics *)
    pct_metric "query.p50_ms" untraced.query_lat 50.;
    pct_metric "update.p50_ms" w.update_lat 50.;
    pct_metric "update.p99_ms" w.update_lat 99. ]

(* [shown] metrics go to the table only, not to the JSON line *)
let print_result ?(shown = []) ~attempted ~failed ~checked metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.6g %-13s %s\n" m.name m.value m.unit_
        (if m.note = "" then "" else "(" ^ m.note ^ ")"))
    (metrics @ shown);
  Printf.printf "  %-34s %14.6g %-13s (%d failed of %d attempted; %d (query, epoch) pairs re-evaluated)\n"
    "fail_ratio" (ratio (fi failed) (fi attempted)) "ratio" failed attempted checked;
  let json =
    J.Obj
      [ ("correct", J.Bool (failed = 0));
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]))
               metrics) ) ]
  in
  print_endline (J.to_string json)

(* ---- modes ---- *)

let setup_repeats = 3

(* one set-up: document generation, load (and, on disk, close + cold
   reopen), plan-cache warm-up.  Each starts from a compacted heap, so no
   set-up sweeps an earlier one's garbage. *)
let timed_setup cfg ~seed =
  Gc.compact ();
  Measure.timed (fun () -> serve cfg ~seed)

let with_served cfg ~seed f =
  let s, _ = timed_setup cfg ~seed in
  Fun.protect ~finally:(fun () -> shutdown s) (fun () -> f s)

let run_plain cfg ~seed ~seconds =
  (* earlier set-ups are timed and dropped; the last one serves *)
  let setups = ref [] in
  for _ = 2 to setup_repeats do
    let s, t = timed_setup cfg ~seed in
    setups := t :: !setups;
    shutdown s
  done;
  let s, t = timed_setup cfg ~seed in
  setups := t :: !setups;
  let answers = new_answers () in
  let w, metrics =
    Fun.protect
      ~finally:(fun () -> shutdown s)
      (fun () ->
        let w = run_window ~trace:false ~limit:(Seconds seconds) ~answers cfg ~seed s in
        (w, end_to_end ~setups:!setups w))
  in
  let wrong, checked = verify cfg ~seed ~n_ops:w.attempted answers in
  print_result
    ~shown:[ pct_metric "query_p50_ms" w.query_lat 50. ]
    ~attempted:w.attempted ~failed:(w.failed + wrong) ~checked metrics

let run_traced cfg ~seed ~seconds =
  let limit = Seconds seconds in
  (* both windows replay one stream from fresh set-ups, so their answers
     pool into one table *)
  let answers = new_answers () in
  (* a throwaway set-up first, as in run_plain: the heap has grown before
     either window, so the first window pays no growth the second skips *)
  shutdown (fst (timed_setup cfg ~seed));
  let plain = with_served cfg ~seed (run_window ~trace:false ~limit ~answers cfg ~seed) in
  let traced, prof =
    with_served cfg ~seed (fun s ->
        let w = run_window ~trace:true ~limit ~answers cfg ~seed s in
        (w, profile_pass s w.executions))
  in
  let n_ops = max plain.attempted traced.attempted in
  let wrong, checked = verify cfg ~seed ~n_ops answers in
  print_result
    ~attempted:(plain.attempted + traced.attempted)
    ~failed:(plain.failed + traced.failed + wrong)
    ~checked
    (per_layer ~untraced:plain traced prof)

(* Determinism check on small documents: two runs of a fixed number of
   operations with one seed must issue the same stream, get the same
   answers and move the same counters; another seed must change the
   stream. *)
let selftest () =
  let ops = 400 in
  let fingerprint cfg ~seed =
    let answers = new_answers () in
    with_served cfg ~seed (fun s ->
        let w = run_window ~trace:true ~limit:(Ops ops) ~answers cfg ~seed s in
        let c name = List.assoc name w.svc in
        ( w.stream_digest,
          w.answer_digest,
          [ ("page reads", w.q.io.Stats.logical_reads + w.u.io.Stats.logical_reads);
            ("physical reads", w.q.io.Stats.physical_reads);
            ("plan cache hits", c "plan_cache_hits");
            ("result cache hits", c "result_cache_hits");
            ("preads", w.q.disk.Disk.data_reads + w.u.disk.Disk.data_reads);
            ("WAL bytes", w.disk_window.Disk.wal_bytes_written);
            ("fsyncs", w.disk_window.Disk.fsyncs);
            ("failed", w.failed) ],
          answers ))
  in
  let ok = ref true in
  let check (cfg : config) what pass =
    Printf.printf "  %-10s %-44s %s\n%!" cfg.name what (if pass then "ok" else "FAILED");
    if not pass then ok := false
  in
  List.iter
    (fun (cfg : config) ->
      let cfg = { cfg with mb = 0.25; pool_pages = min cfg.pool_pages 16 } in
      let stream1, answers1, counts1, answers = fingerprint cfg ~seed:11 in
      let stream2, answers2, counts2, _ = fingerprint cfg ~seed:11 in
      let stream3, _, _, _ = fingerprint cfg ~seed:12 in
      check cfg "same seed: same request stream" (stream1 = stream2);
      check cfg "same seed: same answers" (answers1 = answers2);
      List.iter2
        (fun (name, a) (_, b) ->
          check cfg (Printf.sprintf "same seed: same %s (%d)" name a) (a = b))
        counts1 counts2;
      check cfg "other seed: different request stream" (stream1 <> stream3);
      let wrong, checked = verify cfg ~seed:11 ~n_ops:ops answers in
      check cfg (Printf.sprintf "answers match replay (%d pairs)" checked) (wrong = 0 && checked > 0))
    Workload.all;
  if not !ok then exit 1

let usage =
  "usage: main.exe --workload read_exec|read_adhoc|churn_disk --seed N --seconds S --trace 0|1\n\
  \       main.exe --selftest"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let selftest_mode = ref false in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the document and the request stream");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer ledger (1)");
      ("--selftest", Arg.Set selftest_mode, " determinism check on small documents") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* a run's store and flight directories live under the work root;
     whatever path the run leaves by, they go *)
  let cleanup () =
    let mine = Printf.sprintf "-%d" (Unix.getpid ()) in
    if Sys.file_exists work_root then begin
      Array.iter
        (fun d -> if String.ends_with ~suffix:mine d then rm_rf (Filename.concat work_root d))
        (Sys.readdir work_root);
      try Unix.rmdir work_root with Unix.Unix_error _ -> ()
    end
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  at_exit cleanup;
  if !selftest_mode then selftest ()
  else
    match List.find_opt (fun (c : config) -> c.name = !workload) Workload.all with
    | None ->
        prerr_endline usage;
        exit 2
    | Some cfg ->
        if !trace = 0 then run_plain cfg ~seed:!seed ~seconds:!seconds
        else run_traced cfg ~seed:!seed ~seconds:!seconds
