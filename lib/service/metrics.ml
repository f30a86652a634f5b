module H = Storage.Stats.Histogram
module Json = Obs.Json

type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, H.h) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; histograms = Hashtbl.create 16 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let inc ?(by = 1) t name =
  let r = counter_ref t name in
  r := !r + by

let counter t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram_of t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = H.create () in
      Hashtbl.add t.histograms name h;
      h

let observe t name v = H.observe (histogram_of t name) v
let histogram t name = Hashtbl.find_opt t.histograms name

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let ratio t ~hits ~misses =
  let h = counter t hits and m = counter t misses in
  if h + m = 0 then None else Some (float_of_int h /. float_of_int (h + m))

(* both caches follow the "<name>_hits"/"<name>_misses" convention; find
   the pairs so snapshots can report derived hit rates *)
let hit_rates t =
  List.filter_map
    (fun (name, _) ->
      match Filename.chop_suffix_opt ~suffix:"_hits" name with
      | Some base ->
          Option.map (fun r -> (base, r)) (ratio t ~hits:name ~misses:(base ^ "_misses"))
      | None -> None)
    (counters t)

let render_text ?io t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "== counters ==";
  List.iter (fun (name, v) -> line "%-28s %d" name v) (counters t);
  (match hit_rates t with
  | [] -> ()
  | rates ->
      line "== hit rates ==";
      List.iter (fun (base, r) -> line "%-28s %.1f%%" base (100. *. r)) rates);
  (match histograms t with
  | [] -> ()
  | hs ->
      line "== latency histograms ==";
      List.iter (fun (name, h) -> line "%-28s %s" name (Format.asprintf "%a" H.pp h)) hs);
  (match io with
  | None -> ()
  | Some s ->
      line "== page I/O ==";
      line "%-28s %d" "logical_reads" s.Storage.Stats.logical_reads;
      line "%-28s %d" "physical_reads" s.Storage.Stats.physical_reads;
      line "%-28s %d" "page_writes" s.Storage.Stats.page_writes;
      line "%-28s %d" "evictions" s.Storage.Stats.evictions;
      line "%-28s %d" "allocations" s.Storage.Stats.allocations;
      line "%-28s %.3f" "hit_ratio" (Storage.Stats.hit_ratio s));
  Buffer.contents buf

(* ---- JSON rendering ---- *)

let histogram_json h =
  let ms v = Json.Float (v *. 1000.) in
  Json.Obj
    [ ("count", Json.Int (H.count h));
      ("sum_ms", ms (H.sum h));
      ("mean_ms", ms (H.mean h));
      ("min_ms", ms (H.min_value h));
      ("max_ms", ms (H.max_value h));
      ("p50_ms", ms (H.percentile h 50.0));
      ("p95_ms", ms (H.percentile h 95.0));
      ("p99_ms", ms (H.percentile h 99.0)) ]

let render_json ?io t =
  let io_json (s : Storage.Stats.t) =
    Json.Obj
      [ ("logical_reads", Json.Int s.logical_reads);
        ("physical_reads", Json.Int s.physical_reads);
        ("page_writes", Json.Int s.page_writes);
        ("evictions", Json.Int s.evictions);
        ("allocations", Json.Int s.allocations);
        ("hit_ratio", Json.Float (Storage.Stats.hit_ratio s)) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("counters", Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (counters t)));
          ("hit_rates", Json.Obj (List.map (fun (base, r) -> (base, Json.Float r)) (hit_rates t)));
          ( "histograms",
            Json.Obj (List.map (fun (name, h) -> (name, histogram_json h)) (histograms t)) ) ]
       @ match io with None -> [] | Some s -> [ ("io", io_json s) ]))

(* ---- OpenMetrics text exposition ----

   One "# TYPE" line per family, counter samples suffixed "_total",
   histograms as cumulative "le" buckets with "_sum"/"_count", "# EOF"
   terminator.  Metric names we mint are
   already identifier-shaped; [om_name] is a belt for names arriving
   from the registry. *)

let om_name s =
  let s = if s = "" then "unnamed" else s in
  let s =
    String.map (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_') s
  in
  match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

let om_label_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let om_float f = if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f else Printf.sprintf "%g" f

let to_openmetrics ?io ?(pools = []) ?disk ?(plan_health = []) t =
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let counter_family name v =
    line "# TYPE %s counter" name;
    line "%s_total %d" name v
  in
  let gauge_family name v =
    line "# TYPE %s gauge" name;
    line "%s %s" name (om_float v)
  in
  (* invalidation-reason counters fold into one labeled family:
     cache_invalidations_<reason> renders as
     vamana_cache_invalidations_total{reason="<reason>"} *)
  let inval_prefix = "cache_invalidations_" in
  let plain, inval =
    List.partition
      (fun (name, _) ->
        not
          (String.length name > String.length inval_prefix
          && String.sub name 0 (String.length inval_prefix) = inval_prefix))
      (counters t)
  in
  List.iter (fun (name, v) -> counter_family ("vamana_" ^ om_name name) v) plain;
  if inval <> [] then begin
    line "# TYPE vamana_cache_invalidations counter";
    List.iter
      (fun (name, v) ->
        let reason =
          String.sub name (String.length inval_prefix)
            (String.length name - String.length inval_prefix)
        in
        line "vamana_cache_invalidations_total{reason=\"%s\"} %d" (om_label_escape reason) v)
      inval
  end;
  List.iter (fun (base, r) -> gauge_family ("vamana_" ^ om_name base ^ "_hit_ratio") r) (hit_rates t);
  List.iter
    (fun (name, h) ->
      let fam = "vamana_" ^ om_name name ^ "_seconds" in
      line "# TYPE %s histogram" fam;
      let cum = ref 0 in
      List.iter
        (fun (ub, n) ->
          cum := !cum + n;
          if Float.is_finite ub then line "%s_bucket{le=\"%s\"} %d" fam (om_float ub) !cum
          else line "%s_bucket{le=\"+Inf\"} %d" fam !cum)
        (H.buckets h);
      line "%s_sum %s" fam (om_float (H.sum h));
      line "%s_count %d" fam (H.count h))
    (histograms t);
  let stat_fields =
    [ ("logical_reads", fun (s : Storage.Stats.t) -> s.logical_reads);
      ("physical_reads", fun (s : Storage.Stats.t) -> s.physical_reads);
      ("writes", fun (s : Storage.Stats.t) -> s.page_writes);
      ("evictions", fun (s : Storage.Stats.t) -> s.evictions);
      ("allocations", fun (s : Storage.Stats.t) -> s.allocations);
      ("write_back_bytes", fun (s : Storage.Stats.t) -> s.write_back_bytes) ]
  in
  (match io with
  | None -> ()
  | Some s ->
      List.iter (fun (fname, get) -> counter_family ("vamana_page_" ^ fname) (get s)) stat_fields;
      gauge_family "vamana_page_hit_ratio" (Storage.Stats.hit_ratio s));
  if pools <> [] then
    List.iter
      (fun (fname, get) ->
        let fam = "vamana_pool_" ^ fname in
        line "# TYPE %s counter" fam;
        List.iter
          (fun (idx, s) -> line "%s_total{index=\"%s\"} %d" fam (om_label_escape idx) (get s))
          pools)
      stat_fields;
  (match disk with
  | None -> ()
  | Some (d : Storage.Disk.io) ->
      counter_family "vamana_wal_records" d.wal_records;
      counter_family "vamana_wal_bytes_written" d.wal_bytes_written;
      counter_family "vamana_fsyncs" d.fsyncs;
      counter_family "vamana_data_reads" d.data_reads;
      counter_family "vamana_data_read_bytes" d.data_read_bytes;
      counter_family "vamana_data_writes" d.data_writes;
      counter_family "vamana_data_write_bytes" d.data_write_bytes;
      counter_family "vamana_checkpoints" d.checkpoints);
  (* plan-health families are always declared — a scrape can tell "no
     plans sampled yet" apart from "exporter predates plan health" *)
  line "# TYPE vamana_plan_drift_score gauge";
  List.iter
    (fun (plan, drift, _, _) ->
      line "vamana_plan_drift_score{plan=\"%s\"} %s" (om_label_escape plan) (om_float drift))
    plan_health;
  line "# TYPE vamana_plan_replans counter";
  List.iter
    (fun (plan, _, replans, _) ->
      line "vamana_plan_replans_total{plan=\"%s\"} %d" (om_label_escape plan) replans)
    plan_health;
  line "# TYPE vamana_plan_samples counter";
  List.iter
    (fun (plan, _, _, samples) ->
      line "vamana_plan_samples_total{plan=\"%s\"} %d" (om_label_escape plan) samples)
    plan_health;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histograms
