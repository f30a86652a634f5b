module Profile = Vamana.Profile

type sample = {
  s_at : float;
  s_epoch : int;
  s_latency : float;
  s_results : int;
  s_root_q : float;
  s_max_q : float;
  s_estimate_q : float;
  s_worst_op : string;
  s_pages : int;
  s_drift : float;
}

type record = {
  hr_query : string;
  hr_scope : string;
  hr_optimized : bool;
  mutable hr_executions : int;
  mutable hr_sampled : int;
  mutable hr_countdown : int;
  mutable hr_drift : float;
  mutable hr_stale : bool;
  mutable hr_replans : int;
  mutable hr_cooldown : int;
  mutable hr_last_epoch : int;
  mutable hr_last_at : float;
  hr_samples : sample option array;
  mutable hr_next : int;
}

type t = {
  h_sample_every : int;
  h_threshold : float;
  h_records : (string, record) Lru.t;
}

let default_sample_every = 16
let default_drift_threshold = 1.0

(* the EWMA smoothing factor and the per-record sample ring size *)
let alpha = 0.5
let reservoir = 32

(* a backstop: the service keys records by plan shape and class, so the
   table normally holds far fewer *)
let capacity = 512

let create ?(sample_every = default_sample_every) ?(drift_threshold = default_drift_threshold) () =
  { h_sample_every = sample_every; h_threshold = drift_threshold; h_records = Lru.create ~capacity }

let record t ~key ~query ~scope ~optimized =
  match Lru.find t.h_records key with
  | Some r -> r
  | None ->
      let r =
        {
          hr_query = query;
          hr_scope = scope;
          hr_optimized = optimized;
          hr_executions = 0;
          hr_sampled = 0;
          (* countdown 1: the first execution is always sampled, so every
             plan gets a baseline q-error reading immediately *)
          hr_countdown = 1;
          hr_drift = 0.0;
          hr_stale = false;
          hr_replans = 0;
          hr_cooldown = 0;
          hr_last_epoch = -1;
          hr_last_at = 0.0;
          hr_samples = Array.make reservoir None;
          hr_next = 0;
        }
      in
      ignore (Lru.put t.h_records key r);
      r

let find t key = Lru.find t.h_records key

let records t =
  List.map snd (Lru.to_list t.h_records)
  |> List.sort (fun a b ->
         match String.compare a.hr_query b.hr_query with
         | 0 -> String.compare a.hr_scope b.hr_scope
         | c -> c)

(* the per-execution hot path: integer countdown, no allocation — a
   service at full tilt pays two loads and a store per query here *)
let note_execution t r =
  r.hr_executions <- r.hr_executions + 1;
  if t.h_sample_every <= 0 then false
  else if r.hr_countdown <= 1 then begin
    r.hr_countdown <- t.h_sample_every;
    true
  end
  else begin
    r.hr_countdown <- r.hr_countdown - 1;
    false
  end

let stale r = r.hr_stale

(* an infinite q-error (estimate 0 against a nonzero actual, or vice
   versa) is the strongest drift evidence there is — e.g. churn inserted
   a tag the plan was costed to find absent.  Clamp it to 2^8 so the
   EWMA arithmetic stays finite but the signal stays loud. *)
let clamp_q q = if Float.is_finite q then q else 256.0

(* worst per-operator q-error over the annotated tree (predicate
   sub-plans and context chains included) *)
let worst_operator (rep : Profile.report) =
  let best = ref ("?", 1.0) in
  let consider label q =
    let q = clamp_q q in
    if q > snd !best then best := (label, q)
  in
  let rec walk (n : Profile.node) =
    (match n.Profile.q_error with Some q -> consider n.Profile.label q | None -> ());
    List.iter (fun (_, p) -> walk p) n.Profile.preds;
    Option.iter walk n.Profile.context
  in
  walk rep.Profile.plan;
  !best

let push_sample r s =
  r.hr_samples.(r.hr_next) <- Some s;
  r.hr_next <- (r.hr_next + 1) mod Array.length r.hr_samples

let last_sample r =
  let n = Array.length r.hr_samples in
  r.hr_samples.((r.hr_next - 1 + n) mod n)

let samples r =
  let n = Array.length r.hr_samples in
  let out = ref [] in
  for i = 1 to n do
    (* walk backwards from the slot before [hr_next]: newest first,
       collected into [out] oldest first *)
    match r.hr_samples.((r.hr_next - i + (2 * n)) mod n) with
    | Some s -> out := s :: !out
    | None -> ()
  done;
  !out

let observe t r ~epoch ~latency ~pages ~results ?(estimate_q = 1.0) (rep : Profile.report) =
  let worst_op, worst_q = worst_operator rep in
  let root_q = clamp_q rep.Profile.root_q_error in
  let max_q = Float.max (clamp_q rep.Profile.max_q_error) worst_q in
  let estimate_q = clamp_q estimate_q in
  (* drift evidence of this sample: the worst of "estimates missed the
     actuals" and "the statistics moved under the estimates", in doublings *)
  let q = Float.max max_q estimate_q in
  let d = if q <= 1.0 then 0.0 else Float.log2 q in
  r.hr_drift <- ((1.0 -. alpha) *. r.hr_drift) +. (alpha *. d);
  r.hr_sampled <- r.hr_sampled + 1;
  r.hr_last_epoch <- epoch;
  r.hr_last_at <- Unix.gettimeofday ();
  push_sample r
    { s_at = r.hr_last_at; s_epoch = epoch; s_latency = latency; s_results = results;
      s_root_q = root_q; s_max_q = max_q; s_estimate_q = estimate_q; s_worst_op = worst_op;
      s_pages = pages; s_drift = r.hr_drift };
  (* replan backoff: when a re-prepared plan still drifts (an estimation
     error no statistics refresh can fix — e.g. a correlated predicate,
     or est > 0 over an operator that never produces), re-replanning
     every sample is pure churn.  Each replan doubles the number of
     samples that must pass before the plan may go stale again. *)
  if r.hr_cooldown > 0 then r.hr_cooldown <- r.hr_cooldown - 1;
  let crossed =
    (not r.hr_stale) && r.hr_cooldown = 0 && t.h_threshold > 0.0
    && r.hr_drift >= t.h_threshold
  in
  if crossed then begin
    r.hr_stale <- true;
    if Obs.active () then
      Obs.emit ~severity:Obs.Warn ~category:"health" "plan_drift"
        [ ("query", Obs.Str r.hr_query);
          ("scope", Obs.Str r.hr_scope);
          ("drift", Obs.Float r.hr_drift);
          ("threshold", Obs.Float t.h_threshold);
          ("root_q_error", Obs.Float root_q);
          ("max_q_error", Obs.Float max_q);
          ("estimate_q", Obs.Float estimate_q);
          ("worst_op", Obs.Str worst_op);
          ("epoch", Obs.Int epoch) ]
  end;
  crossed

let sample_next r = r.hr_countdown <- 1

let note_replan _t r ~epoch =
  r.hr_replans <- r.hr_replans + 1;
  r.hr_stale <- false;
  r.hr_drift <- 0.0;
  r.hr_cooldown <- min 64 (1 lsl r.hr_replans);
  (* verify the recovery promptly: the re-prepared plan's next execution
     is sampled regardless of where the countdown stood *)
  sample_next r;
  if Obs.active () then
    Obs.emit ~severity:Obs.Warn ~category:"health" "adaptive_replan"
      [ ("query", Obs.Str r.hr_query);
        ("scope", Obs.Str r.hr_scope);
        ("replans", Obs.Int r.hr_replans);
        ("epoch", Obs.Int epoch) ]

module Json = Profile.Json

let sample_json s =
  Json.Obj
    [ ("at", Json.Float s.s_at);
      ("epoch", Json.Int s.s_epoch);
      ("latency_ms", Json.Float (s.s_latency *. 1000.));
      ("results", Json.Int s.s_results);
      ("root_q_error", Json.Float s.s_root_q);
      ("max_q_error", Json.Float s.s_max_q);
      ("estimate_q", Json.Float s.s_estimate_q);
      ("worst_op", Json.Str s.s_worst_op);
      ("pages_read", Json.Int s.s_pages);
      ("drift", Json.Float s.s_drift) ]

let record_json r =
  Json.Obj
    [ ("query", Json.Str r.hr_query);
      ("scope", Json.Str r.hr_scope);
      ("optimized", Json.Bool r.hr_optimized);
      ("executions", Json.Int r.hr_executions);
      ("samples", Json.Int r.hr_sampled);
      ("drift", Json.Float r.hr_drift);
      ("stale", Json.Bool r.hr_stale);
      ("replans", Json.Int r.hr_replans);
      ("last_sampled_epoch", Json.Int r.hr_last_epoch);
      ("q_error_trend", Json.Arr (List.map (fun s -> Json.Float s.s_max_q) (samples r)));
      ("reservoir", Json.Arr (List.map sample_json (samples r))) ]

let to_json t = Json.Obj [ ("plans", Json.Arr (List.map record_json (records t))) ]

let openmetrics_families t =
  List.map (fun r -> (r.hr_query, r.hr_drift, r.hr_replans, r.hr_sampled)) (records t)
