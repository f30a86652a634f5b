module Json = Obs.Json

(* ---- collection ---- *)

type slot = {
  op_id : int;
  label : string;
  mutable tuples : int;
  mutable next_calls : int;
  mutable resets : int;
  mutable cursor_opens : int;
  mutable started : int;
  mutable exhausted : int;
  mutable self_time : float;
  mutable self_reads : int;
  mutable self_phys : int;
}

type ctx = {
  read_io : unit -> int * int;
      (** current (logical, physical) read totals of the profiled store
          ({!Mass.Store.io_stats} recomputes a snapshot per call) *)
  table : (int, slot) Hashtbl.t;
  (* inclusive time/reads of completed callee frames inside the frame
     currently on the stack; saved/restored around each frame so every
     slot ends up with exact exclusive figures *)
  mutable child_time : float;
  mutable child_reads : int;
  mutable child_phys : int;
}

let create store =
  { read_io =
      (fun () ->
        let s = Mass.Store.io_stats store in
        (s.Storage.Stats.logical_reads, s.Storage.Stats.physical_reads));
    table = Hashtbl.create 16;
    child_time = 0.0;
    child_reads = 0;
    child_phys = 0 }

let slot ctx ~op_id ~label =
  match Hashtbl.find_opt ctx.table op_id with
  | Some s -> s
  | None ->
      let s =
        { op_id; label; tuples = 0; next_calls = 0; resets = 0; cursor_opens = 0;
          started = 0; exhausted = 0; self_time = 0.0; self_reads = 0; self_phys = 0 }
      in
      Hashtbl.add ctx.table op_id s;
      s

let frame ctx s f =
  s.next_calls <- s.next_calls + 1;
  let saved_t = ctx.child_time and saved_r = ctx.child_reads and saved_p = ctx.child_phys in
  ctx.child_time <- 0.0;
  ctx.child_reads <- 0;
  ctx.child_phys <- 0;
  let t0 = Obs.clock () in
  let r0, p0 = ctx.read_io () in
  match f () with
  | result ->
      let dt = Obs.clock () -. t0 in
      let r1, p1 = ctx.read_io () in
      let dr = r1 - r0 in
      let dp = p1 - p0 in
      s.self_time <- s.self_time +. dt -. ctx.child_time;
      s.self_reads <- s.self_reads + dr - ctx.child_reads;
      s.self_phys <- s.self_phys + dp - ctx.child_phys;
      ctx.child_time <- saved_t +. dt;
      ctx.child_reads <- saved_r + dr;
      ctx.child_phys <- saved_p + dp;
      (match result with Some _ -> s.tuples <- s.tuples + 1 | None -> ());
      result
  | exception e ->
      ctx.child_time <- saved_t;
      ctx.child_reads <- saved_r;
      ctx.child_phys <- saved_p;
      raise e

let slots ctx =
  Hashtbl.fold (fun _ s acc -> s :: acc) ctx.table []
  |> List.sort (fun a b -> compare a.op_id b.op_id)

(* ---- spans ---- *)

type span = { name : string; dur : float; meta : (string * Json.t) list }

let span ?(meta = []) name dur = { name; dur; meta }

(* ---- reports ---- *)

type node = {
  id : int;
  label : string;
  est : Cost.stats option;
  act : slot option;
  q_error : float option;
  preds : (string * node) list;
  context : node option;
}

type report = {
  plan : node;
  spans : span list;
  total_time : float;
  root_q_error : float;
  max_q_error : float;
}

let q_error ~est ~act =
  if est = act then 1.0
  else if est = 0 || act = 0 then Float.infinity
  else
    let e = float_of_int est and a = float_of_int act in
    Float.max (e /. a) (a /. e)

let rec node_of ctx ~cost (op : Plan.op) =
  let act = Hashtbl.find_opt ctx.table op.Plan.id in
  let est = Hashtbl.find_opt cost op.Plan.id in
  let q_error =
    match est with
    | Some e -> Some (q_error ~est:e.Cost.output ~act:(match act with Some s -> s.tuples | None -> 0))
    | None -> None
  in
  { id = op.Plan.id;
    label = Plan.kind_to_string op;
    est;
    act;
    q_error;
    preds = List.concat_map (pred_nodes ctx ~cost) op.Plan.predicates;
    context = Option.map (node_of ctx ~cost) op.Plan.context }

and pred_nodes ctx ~cost (pred : Plan.pred) =
  match pred with
  | Plan.Exists sub -> [ ("ξ exists", node_of ctx ~cost sub) ]
  | Plan.Binary (_, cmp, a, b) ->
      let operand o =
        match o with
        | Plan.Path_operand sub ->
            [ ("β " ^ Plan.binop_symbol cmp, node_of ctx ~cost sub) ]
        | Plan.Literal _ | Plan.Number_operand _ -> []
      in
      operand a @ operand b
  | Plan.And (a, b) | Plan.Or (a, b) -> pred_nodes ctx ~cost a @ pred_nodes ctx ~cost b
  | Plan.Not a -> pred_nodes ctx ~cost a
  | Plan.Position _ | Plan.Generic _ -> []

let rec fold_nodes f acc node =
  let acc = f acc node in
  let acc = List.fold_left (fun acc (_, sub) -> fold_nodes f acc sub) acc node.preds in
  match node.context with Some c -> fold_nodes f acc c | None -> acc

let make ctx ~cost ?(spans = []) ~total_time (plan : Plan.op) =
  let tree = node_of ctx ~cost plan in
  let root_q_error = match tree.q_error with Some q -> q | None -> 1.0 in
  let max_q_error =
    fold_nodes
      (fun acc n -> match n.q_error with Some q when q > acc -> q | _ -> acc)
      1.0 tree
  in
  { plan = tree; spans; total_time; root_q_error; max_q_error }

(* ---- rendering ---- *)

let q_string q = if Float.is_finite q then Printf.sprintf "%.3g" q else "∞"

let line_of_node n =
  let est =
    match n.est with
    | Some e ->
        Printf.sprintf " est{COUNT=%d IN=%d OUT=%d}" e.Cost.count e.Cost.input e.Cost.output
    | None -> ""
  in
  let act =
    match n.act with
    | Some s ->
        Printf.sprintf " act{out=%d next=%d reset=%d cursors=%d t=%.3fms io=%d/%d}" s.tuples
          s.next_calls s.resets s.cursor_opens (s.self_time *. 1000.) s.self_reads
          s.self_phys
    | None -> " act{not executed}"
  in
  let q = match n.q_error with Some q -> Printf.sprintf " q=%s" (q_string q) | None -> "" in
  Printf.sprintf "%s%s%s%s" n.label est act q

let render_text r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "execution profile: %.3f ms, root q-error %s, max operator q-error %s"
    (r.total_time *. 1000.) (q_string r.root_q_error) (q_string r.max_q_error);
  let rec render ~indent ~prefix n =
    line "%s%s%s" (String.make indent ' ') prefix (line_of_node n);
    List.iter (fun (label, sub) -> render ~indent:(indent + 2) ~prefix:(label ^ " ") sub) n.preds;
    match n.context with Some c -> render ~indent:(indent + 2) ~prefix:"" c | None -> ()
  in
  render ~indent:0 ~prefix:"" r.plan;
  if r.spans <> [] then begin
    line "spans:";
    List.iter
      (fun s ->
        let meta =
          if s.meta = [] then ""
          else
            "  "
            ^ String.concat " "
                (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Json.to_string v)) s.meta)
        in
        line "  %-10s %10.3f ms%s" s.name (s.dur *. 1000.) meta)
      r.spans
  end;
  Buffer.contents buf

let jfloat f = if Float.is_finite f then Json.Float f else Json.Null

let json_of_slot s =
  Json.Obj
    [ ("tuples", Json.Int s.tuples);
      ("next_calls", Json.Int s.next_calls);
      ("resets", Json.Int s.resets);
      ("cursor_opens", Json.Int s.cursor_opens);
      ("started", Json.Int s.started);
      ("exhausted", Json.Int s.exhausted);
      ("self_ms", jfloat (s.self_time *. 1000.));
      ("logical_reads", Json.Int s.self_reads);
      ("physical_reads", Json.Int s.self_phys) ]

let json_of_est (e : Cost.stats) =
  Json.Obj
    [ ("count", Json.Int e.Cost.count);
      ("in", Json.Int e.Cost.input);
      ("out", Json.Int e.Cost.output);
      ("selectivity", jfloat e.Cost.selectivity) ]

let rec json_of_node n =
  let fields =
    [ ("id", Json.Int n.id);
      ("op", Json.Str n.label);
      ("estimated", match n.est with Some e -> json_of_est e | None -> Json.Null);
      ("actual", match n.act with Some s -> json_of_slot s | None -> Json.Null);
      ("q_error", match n.q_error with Some q -> jfloat q | None -> Json.Null) ]
  in
  let fields =
    if n.preds = [] then fields
    else
      fields
      @ [ ( "predicates",
            Json.Arr
              (List.map
                 (fun (label, sub) ->
                   Json.Obj [ ("label", Json.Str label); ("plan", json_of_node sub) ])
                 n.preds) ) ]
  in
  let fields =
    match n.context with
    | Some c -> fields @ [ ("context", json_of_node c) ]
    | None -> fields
  in
  Json.Obj fields

let json_of_span s =
  Json.Obj
    ([ ("name", Json.Str s.name); ("ms", jfloat (s.dur *. 1000.)) ] @ s.meta)

let render_json r =
  Json.Obj
    [ ("total_ms", jfloat (r.total_time *. 1000.));
      ("root_q_error", jfloat r.root_q_error);
      ("max_q_error", jfloat r.max_q_error);
      ("spans", Json.Arr (List.map json_of_span r.spans));
      ("plan", json_of_node r.plan) ]

let render_json_string r = Json.to_string (render_json r)
