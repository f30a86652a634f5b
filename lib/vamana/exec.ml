module Store = Mass.Store
open Xpath

type pred_rt =
  | RExists of iterator
  | RBinary of Ast.binop * operand_rt * operand_rt
  | RAnd of pred_rt * pred_rt
  | ROr of pred_rt * pred_rt
  | RNot of pred_rt
  | RPosition of Ast.binop * float
  | RGeneric of Ast.expr

and operand_rt = RPath of iterator | RLit of string | RNum of float

and layer = { pred : pred_rt; mutable seen : int }

and iterator = {
  store : Store.t;
  op : Plan.op;
  child : iterator option;
  layers : layer list;
  prof : (Profile.ctx * Profile.slot) option;
      (** profiling slot; [None] on the uninstrumented path *)
  mutable st : [ `Initial | `Fetching | `Out_of_tuples ];
  mutable root_ctx : Flex.t;  (** leaf context (meaningful when [child = None]) *)
  mutable cursor : Store.cursor option;
  mutable generic_queue : Flex.t list;  (** buffered results for [Step_generic] *)
}

let state it = it.st

(* ---- construction ---- *)

let rec build ?profile store ~context (op : Plan.op) =
  let child = Option.map (build ?profile store ~context) op.context in
  let layers =
    List.map (fun p -> { pred = build_pred ?profile store ~context p; seen = 0 }) op.predicates
  in
  let prof =
    match profile with
    | None -> None
    | Some ctx ->
        Some (ctx, Profile.slot ctx ~op_id:op.id ~label:(Plan.kind_to_string op))
  in
  { store; op; child; layers; prof; st = `Initial; root_ctx = context; cursor = None;
    generic_queue = [] }

and build_pred ?profile store ~context (p : Plan.pred) =
  match p with
  | Plan.Exists sub -> RExists (build ?profile store ~context sub)
  | Plan.Binary (_, cmp, a, b) ->
      RBinary (cmp, build_operand ?profile store ~context a, build_operand ?profile store ~context b)
  | Plan.And (a, b) -> RAnd (build_pred ?profile store ~context a, build_pred ?profile store ~context b)
  | Plan.Or (a, b) -> ROr (build_pred ?profile store ~context a, build_pred ?profile store ~context b)
  | Plan.Not a -> RNot (build_pred ?profile store ~context a)
  | Plan.Position (cmp, n) -> RPosition (cmp, n)
  | Plan.Generic e -> RGeneric e

and build_operand ?profile store ~context (o : Plan.operand) =
  match o with
  | Plan.Path_operand sub -> RPath (build ?profile store ~context sub)
  | Plan.Literal (_, v) -> RLit v
  | Plan.Number_operand f -> RNum f

(* ---- dynamic context setting (Algorithm 2) ---- *)

let rec reset it ctx =
  (match it.prof with Some (_, s) -> s.Profile.resets <- s.Profile.resets + 1 | None -> ());
  it.st <- `Initial;
  it.cursor <- None;
  it.generic_queue <- [];
  List.iter (fun l -> l.seen <- 0) it.layers;
  match it.child with Some c -> reset c ctx | None -> it.root_ctx <- ctx

(* ---- predicate evaluation ---- *)

let num_cmp (cmp : Ast.binop) a b =
  match cmp with
  | Ast.Eq -> a = b
  | Ast.Neq -> a <> b
  | Ast.Lt -> a < b
  | Ast.Le -> a <= b
  | Ast.Gt -> a > b
  | Ast.Ge -> a >= b
  | Ast.And | Ast.Or | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Union ->
      invalid_arg "Exec: not a comparison"

let number_of_string store s = Nav.E.to_number store (Xpath.Eval.Str s)

let rec next it : Flex.t option =
  match it.prof with
  | None -> next_inner it
  | Some (ctx, s) ->
      let before = it.st in
      let r = Profile.frame ctx s (fun () -> next_inner it) in
      (if it.st <> before then begin
         (if before = `Initial then s.Profile.started <- s.Profile.started + 1);
         if it.st = `Out_of_tuples then s.Profile.exhausted <- s.Profile.exhausted + 1
       end);
      r

and next_inner it : Flex.t option =
  match it.st with
  | `Out_of_tuples -> None
  | `Initial | `Fetching -> (
      match it.op.kind with
      | Plan.Root -> (
          it.st <- `Fetching;
          match it.child with
          | Some c -> (
              match next c with
              | Some _ as r -> r
              | None ->
                  it.st <- `Out_of_tuples;
                  None)
          | None ->
              it.st <- `Out_of_tuples;
              None)
      | Plan.Step_generic s -> next_generic it s
      | Plan.Step _ | Plan.Value_step _ -> next_step it)

(* the paper's Algorithm 1, adapted to cursor-backed steps *)
and next_step it =
  match it.cursor with
  | Some cur -> (
      match cur () with
      | Some k as r -> if passes it.store k it.layers then r else next_step it
      | None ->
          it.cursor <- None;
          next_step it)
  | None -> (
      match it.child with
      | Some child -> (
          (* non-leaf: pull the next context tuple from the context child *)
          match next child with
          | Some ctx ->
              set_cursor it ctx;
              next_step it
          | None ->
              it.st <- `Out_of_tuples;
              None)
      | None ->
          (* leaf: the engine-provided context drives the single cursor *)
          if it.st = `Initial then begin
            it.st <- `Fetching;
            set_cursor it it.root_ctx;
            next_step it
          end
          else begin
            it.st <- `Out_of_tuples;
            None
          end)

and set_cursor it ctx =
  it.st <- `Fetching;
  (match it.prof with
  | Some (_, s) -> s.Profile.cursor_opens <- s.Profile.cursor_opens + 1
  | None -> ());
  List.iter (fun l -> l.seen <- 0) it.layers;
  match it.op.kind with
  | Plan.Step (axis, test) -> it.cursor <- Some (Store.axis_cursor it.store axis test ctx)
  | Plan.Value_step (v, source) ->
      let raw = Store.value_cursor ~scope:ctx it.store v in
      let filtered =
        match source with
        | None -> raw
        | Some test ->
            let matches k =
              match Store.get it.store k with
              | Some r -> (
                  match test with
                  | Ast.Text_test -> r.Mass.Record.kind = Mass.Record.Text
                  | Ast.Name_test n ->
                      r.Mass.Record.kind = Mass.Record.Attribute && String.equal r.Mass.Record.name n
                  | Ast.Node_test -> true
                  | Ast.Wildcard -> r.Mass.Record.kind = Mass.Record.Attribute
                  | Ast.Comment_test | Ast.Pi_test _ -> false)
              | None -> false
            in
            let rec pull () =
              match raw () with
              | Some k -> if matches k then Some k else pull ()
              | None -> None
            in
            pull
      in
      it.cursor <- Some filtered
  | Plan.Root | Plan.Step_generic _ -> assert false

and next_generic it s =
  match it.generic_queue with
  | k :: rest ->
      it.generic_queue <- rest;
      Some k
  | [] -> (
      let feed ctx =
        match
          Nav.E.eval it.store ~context:ctx (Ast.Path { Ast.absolute = false; steps = [ s ] })
        with
        | Xpath.Eval.Nodes ns -> ns
        | _ -> []
      in
      match it.child with
      | Some child -> (
          match next child with
          | Some ctx ->
              it.st <- `Fetching;
              it.generic_queue <- feed ctx;
              next_generic it s
          | None ->
              it.st <- `Out_of_tuples;
              None)
      | None ->
          if it.st = `Initial then begin
            it.st <- `Fetching;
            it.generic_queue <- feed it.root_ctx;
            next_generic it s
          end
          else begin
            it.st <- `Out_of_tuples;
            None
          end)

(* closure-free: the position travels as an int, and only the predicates
   that read it box it as a float *)
and passes store k = function
  | [] -> true
  | l :: rest ->
      l.seen <- l.seen + 1;
      eval_pred store l.pred k l.seen && passes store k rest

and eval_pred store pred k position =
  match pred with
  | RExists sub ->
      reset sub k;
      next sub <> None
  | RBinary (cmp, a, b) -> compare_sides store cmp (side store a k) (side store b k)
  | RAnd (a, b) -> eval_pred store a k position && eval_pred store b k position
  | ROr (a, b) -> eval_pred store a k position || eval_pred store b k position
  | RNot a -> not (eval_pred store a k position)
  | RPosition (cmp, n) -> num_cmp cmp (float_of_int position) n
  | RGeneric e -> (
      match Nav.E.eval store ~context:k e with
      | Xpath.Eval.Num f -> f = float_of_int position
      | v -> Nav.E.to_boolean store v)

and side store operand k =
  match operand with
  | RPath sub ->
      reset sub k;
      let rec go acc =
        match next sub with
        | Some n -> go (Store.string_value store n :: acc)
        | None -> List.rev acc
      in
      `Values (go [])
  | RLit s -> `Str s
  | RNum f -> `Num f

(* XPath 1.0 §3.4 comparison semantics over materialized string values *)
and compare_sides store cmp a b =
  let relational = match cmp with Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true | _ -> false in
  let num = number_of_string store in
  match (a, b) with
  | `Values va, `Values vb ->
      List.exists
        (fun x ->
          List.exists
            (fun y -> if relational then num_cmp cmp (num x) (num y) else str_eq cmp x y)
            vb)
        va
  | `Values va, `Str s -> List.exists (fun x -> if relational then num_cmp cmp (num x) (num s) else str_eq cmp x s) va
  | `Str s, `Values vb -> List.exists (fun y -> if relational then num_cmp cmp (num s) (num y) else str_eq cmp s y) vb
  | `Values va, `Num f -> List.exists (fun x -> num_cmp cmp (num x) f) va
  | `Num f, `Values vb -> List.exists (fun y -> num_cmp cmp f (num y)) vb
  | `Str x, `Str y -> if relational then num_cmp cmp (num x) (num y) else str_eq cmp x y
  | `Str x, `Num f -> num_cmp cmp (num x) f
  | `Num f, `Str y -> num_cmp cmp f (num y)
  | `Num x, `Num y -> num_cmp cmp x y

and str_eq cmp x y =
  match (cmp : Ast.binop) with
  | Ast.Eq -> String.equal x y
  | Ast.Neq -> not (String.equal x y)
  | _ -> assert false

(* ---- whole-plan execution ---- *)

let run_raw ?profile store ~context plan =
  let it = build ?profile store ~context plan in
  let rec go acc = match next it with Some k -> go (k :: acc) | None -> List.rev acc in
  go []

let rec strictly_sorted = function
  | a :: (b :: _ as rest) -> Flex.compare a b < 0 && strictly_sorted rest
  | [ _ ] | [] -> true

let run ?profile store ~context plan =
  let keys = run_raw ?profile store ~context plan in
  (* a stream already in document order is spared the O(n log n) sort *)
  if strictly_sorted keys then keys else List.sort_uniq Flex.compare keys
