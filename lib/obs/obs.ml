module Json = Json

type severity = Debug | Info | Warn | Error

type value = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

type event = {
  seq : int;
  ts : float;
  severity : severity;
  category : string;
  name : string;
  attrs : (string * value) list;
}

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* ---- bus state ----

   One process-wide bus.  [active_flag] is the only word the hot path
   reads; it is true exactly while a ring or at least one sink is
   attached, so instrumentation sites guarded by [active ()] cost one
   load-and-branch when the process is unobserved. *)

type sink = { id : int; fn : event -> unit }

type ring = {
  slots : event option array;
  mutable head : int;  (* next write position *)
  mutable length : int;
  mutable dropped : int;
}

let default_ring_capacity = 4096

let active_flag = ref false
let ring_state : ring option ref = ref None
let sinks : sink list ref = ref []
let next_sink_id = ref 0
let seq_counter = ref 0
let sampled_out_count = ref 0

(* per-category sampling: rate n keeps every n-th event; [tick] counts
   emissions within the current window *)
type sampler = { mutable rate : int; mutable tick : int }

let samplers : (string, sampler) Hashtbl.t = Hashtbl.create 16

(* ---- clock ----

   Every duration in the code base is a difference of [clock] readings:
   CLOCK_MONOTONIC, so spans and event timestamps never jump when the
   system clock is set.  Wall-clock time is for timestamps only. *)

let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

(* the bus clock starts on first use; timestamps are seconds since then *)
let epoch = ref nan
let now () =
  let t = clock () in
  if Float.is_nan !epoch then epoch := t;
  t -. !epoch

let refresh_active () = active_flag := !ring_state <> None || !sinks <> []
let active () = !active_flag

(* ---- sampling ---- *)

let set_sample_rate category n =
  if n < 1 then invalid_arg "Obs.set_sample_rate: rate < 1";
  match Hashtbl.find_opt samplers category with
  | Some s ->
      s.rate <- n;
      s.tick <- 0
  | None -> Hashtbl.add samplers category { rate = n; tick = 0 }

let sample_rate category =
  match Hashtbl.find_opt samplers category with Some s -> s.rate | None -> 1

let sampled_out () = !sampled_out_count

(* keep the first event of each window so a freshly attached subscriber
   sees every category immediately *)
let sample_pass category =
  match Hashtbl.find_opt samplers category with
  | None -> true
  | Some s ->
      if s.rate <= 1 then true
      else begin
        let keep = s.tick = 0 in
        s.tick <- (s.tick + 1) mod s.rate;
        if not keep then incr sampled_out_count;
        keep
      end

(* ---- ring ---- *)

let attach_ring ?(capacity = default_ring_capacity) () =
  if capacity < 1 then invalid_arg "Obs.attach_ring: capacity < 1";
  ring_state := Some { slots = Array.make capacity None; head = 0; length = 0; dropped = 0 };
  refresh_active ()

let detach_ring () =
  ring_state := None;
  refresh_active ()

let ring_push r e =
  let cap = Array.length r.slots in
  r.slots.(r.head) <- Some e;
  r.head <- (r.head + 1) mod cap;
  if r.length < cap then r.length <- r.length + 1 else r.dropped <- r.dropped + 1

let drain () =
  match !ring_state with
  | None -> []
  | Some r ->
      let cap = Array.length r.slots in
      let start = (r.head - r.length + cap * 2) mod cap in
      let out =
        List.init r.length (fun i ->
            match r.slots.((start + i) mod cap) with
            | Some e -> e
            | None -> assert false)
      in
      Array.fill r.slots 0 cap None;
      r.head <- 0;
      r.length <- 0;
      out

let ring_length () = match !ring_state with None -> 0 | Some r -> r.length
let dropped () = match !ring_state with None -> 0 | Some r -> r.dropped

(* ---- sinks ---- *)

let attach_sink fn =
  let s = { id = !next_sink_id; fn } in
  incr next_sink_id;
  sinks := !sinks @ [ s ];
  refresh_active ();
  s

let detach_sink s =
  sinks := List.filter (fun s' -> s'.id <> s.id) !sinks;
  refresh_active ()

(* ---- emission context ----

   Dynamically scoped attributes appended to every event emitted within
   [with_context]; the service wraps query execution in a [qid] context
   so storage events fired deep inside pagers attribute to the query
   that caused them without threading ids through every layer. *)

let context_attrs : (string * value) list ref = ref []
let context () = !context_attrs

let with_context attrs f =
  let saved = !context_attrs in
  context_attrs := saved @ attrs;
  Fun.protect ~finally:(fun () -> context_attrs := saved) f

(* query ids are minted even while the bus is inactive: the flight
   recorder needs them whether or not anyone is tracing *)
let query_id_counter = ref 0

let fresh_query_id () =
  incr query_id_counter;
  !query_id_counter

(* ---- emission ---- *)

let emit ?(severity = Info) ~category name attrs =
  if !active_flag && sample_pass category then begin
    let attrs = match !context_attrs with [] -> attrs | ctx -> attrs @ ctx in
    let e = { seq = !seq_counter; ts = now (); severity; category; name; attrs } in
    incr seq_counter;
    (match !ring_state with Some r -> ring_push r e | None -> ());
    List.iter (fun s -> s.fn e) !sinks
  end

let time_span ?severity ~category name attrs f =
  if !active_flag then begin
    let t0 = clock () in
    match f () with
    | r ->
        let dur_ms = (clock () -. t0) *. 1000. in
        emit ?severity ~category name (attrs @ [ ("dur_ms", Float dur_ms) ]);
        r
    | exception exn ->
        (* a span that raises still happened: emit it with the error
           attached so failed queries appear in traces, then re-raise *)
        let bt = Printexc.get_raw_backtrace () in
        let dur_ms = (clock () -. t0) *. 1000. in
        emit ~severity:Error ~category name
          (attrs @ [ ("dur_ms", Float dur_ms); ("error", Str (Printexc.to_string exn)) ]);
        Printexc.raise_with_backtrace exn bt
  end
  else f ()

(* ---- JSON / text rendering ---- *)

(* [ts] is monotonic seconds, the same unit as the record field *)
let to_json_string e =
  Json.to_string
    (Obj
       [ ("seq", Int e.seq);
         ("ts", Float e.ts);
         ("severity", Str (severity_to_string e.severity));
         ("category", Str e.category);
         ("name", Str e.name);
         ("attrs", Obj e.attrs) ])

let value_to_text = function
  | Float f -> Printf.sprintf "%.3f" f
  | Str s -> s
  | v -> Json.to_string v

let to_text e =
  Printf.sprintf "%12.6f %-5s %-10s %-16s %s" e.ts
    (severity_to_string e.severity)
    e.category e.name
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ value_to_text v) e.attrs))

let attach_jsonl oc =
  attach_sink (fun e ->
      output_string oc (to_json_string e);
      output_char oc '\n';
      flush oc)

(* ---- Chrome trace_event export ---- *)

module Trace = struct
  (* Each bus category becomes one Chrome "thread": categories are the
     process's logical lanes (query, storage, service, ...), and lanes
     are what Perfetto renders as rows.  Events carrying a [dur_ms]
     attribute were emitted at span *end*, so the B timestamp is
     recovered as [ts - dur]; everything else becomes an instant.

     Chrome requires B/E pairs per tid to nest like a call stack.  Bus
     spans are only approximately nested (ends are measured, starts are
     derived), so we repair them: intervals sorted by (start asc, end
     desc) are replayed against an explicit stack, a child's end is
     clamped to its parent's, and every B gets exactly one E.  The
     result is guaranteed balanced and per-tid monotonic. *)

  let span_duration e =
    match List.assoc_opt "dur_ms" e.attrs with
    | Some (Float ms) -> Some (Float.max 0.0 ms /. 1000.)
    | Some (Int ms) -> Some (Float.max 0.0 (float_of_int ms) /. 1000.)
    | _ -> None

  let args e = ("args", Obj (("severity", Str (severity_to_string e.severity)) :: e.attrs))

  let meta_event ~tid name value =
    Obj
      [ ("name", Str name); ("ph", Str "M"); ("pid", Int 1); ("tid", Int tid); ("ts", Int 0);
        ("args", Obj [ ("name", Str value) ]) ]

  (* [ts] in microseconds, as the format requires *)
  let event ph ~tid ~ts e extra =
    Obj
      ([ ("name", Str e.name); ("cat", Str e.category); ("ph", Str ph); ("pid", Int 1);
         ("tid", Int tid); ("ts", Float (ts *. 1e6)) ]
      @ extra)

  let begin_event ~tid ~ts e = event "B" ~tid ~ts e [ args e ]
  let end_event ~tid ~ts e = event "E" ~tid ~ts e []
  let instant_event ~tid e = event "i" ~tid ~ts:e.ts e [ ("s", Str "t"); args e ]

  let to_chrome ?(process_name = "vamana") events =
    let cats = List.sort_uniq String.compare (List.map (fun e -> e.category) events) in
    let tids = List.mapi (fun i c -> (c, i + 1)) cats in
    let tid_of c = List.assoc c tids in
    let out = ref [] in
    (* collected in emission order; (ts, json) so a final stable sort by
       ts can interleave lanes without breaking per-tid ordering *)
    let push ts json = out := (ts, json) :: !out in
    List.iter
      (fun cat ->
        let tid = tid_of cat in
        let spans, instants =
          List.partition_map
            (fun e ->
              match span_duration e with
              | Some d -> Left (Float.max 0.0 (e.ts -. d), e.ts, e)
              | None -> Right e)
            (List.filter (fun e -> e.category = cat) events)
        in
        List.iter (fun e -> push e.ts (instant_event ~tid e)) instants;
        let spans =
          List.stable_sort
            (fun (s1, e1, _) (s2, e2, _) ->
              match Float.compare s1 s2 with 0 -> Float.compare e2 e1 | c -> c)
            spans
        in
        let stack = ref [] in
        let pop_until limit =
          let rec go () =
            match !stack with
            | (end_ts, ev) :: rest when end_ts <= limit ->
                push end_ts (end_event ~tid ~ts:end_ts ev);
                stack := rest;
                go ()
            | _ -> ()
          in
          go ()
        in
        List.iter
          (fun (start, stop, ev) ->
            pop_until start;
            let stop =
              match !stack with
              | (parent_end, _) :: _ -> Float.min stop parent_end
              | [] -> stop
            in
            let stop = Float.max stop start in
            push start (begin_event ~tid ~ts:start ev);
            stack := (stop, ev) :: !stack)
          spans;
        pop_until infinity)
      cats;
    let body = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev !out) in
    let meta =
      meta_event ~tid:0 "process_name" process_name
      :: List.map (fun (c, tid) -> meta_event ~tid "thread_name" c) tids
    in
    Json.to_string
      (Obj [ ("traceEvents", Arr (meta @ List.map snd body)); ("displayTimeUnit", Str "ms") ])
end

(* ---- lifecycle ---- *)

let reset () =
  ring_state := None;
  sinks := [];
  Hashtbl.reset samplers;
  sampled_out_count := 0;
  seq_counter := 0;
  query_id_counter := 0;
  context_attrs := [];
  epoch := nan;
  refresh_active ()
