(* Static checking of XPath 1.0 source expressions against a path
   synopsis (a DataGuide-style structural summary).  Two cooperating
   analyses share one walk of the AST:

   - type inference: every expression gets an XPath 1.0 static type
     (node-set / string / number / boolean), with constant folding that
     mirrors [Eval]'s §3.4 comparison semantics, so lossy coercions and
     always-false comparisons surface before execution;

   - schema walking: location paths are interpreted over an abstract
     stream domain keyed by synopsis nodes, yielding per-step cardinality
     facts — an exact count when the stream provably carries every record
     of a path exactly once, an estimate otherwise, and zero as a sound
     schema-level emptiness proof.

   The synopsis is abstracted as a polymorphic {!schema} record so this
   module stays storage-agnostic ([lib/xpath] cannot see [Mass]); the
   concrete instantiation lives in [Mass.Synopsis]. *)

type ty = Nodeset | Num | Str | Bool | Unknown

let ty_to_string = function
  | Nodeset -> "node-set"
  | Num -> "number"
  | Str -> "string"
  | Bool -> "boolean"
  | Unknown -> "unknown"

type severity = Info | Warning | Error

let severity_to_string = function Info -> "info" | Warning -> "warning" | Error -> "error"

type diagnostic = {
  severity : severity;
  code : string;
  span : Parser.span option;
  message : string;
}

(* ---- the abstract schema ---- *)

type 'n schema = {
  sch_roots : 'n list;  (** document nodes (tag ["#document"]) *)
  sch_tag : 'n -> string;
  sch_count : 'n -> int;
  sch_children : 'n -> 'n list;
  sch_parent : 'n -> 'n option;
}

(* Occurrence facts for the tuples of one synopsis path inside a stream:
   [bound] tuples at most; [exact] — [bound] is the precise raw tuple
   count; [all] — the stream carries every record of the path exactly
   once; [distinct] — no record appears twice.  [all] implies [exact]
   and [distinct] by construction. *)
type occ = { bound : int; exact : bool; all : bool; distinct : bool }

type 'n reach = ('n * occ) list

(* Saturating arithmetic: bounds only need to be ordered, not precise,
   once they leave the exact regime. *)
let sat_cap = max_int / 4
let sat n = if n > sat_cap then sat_cap else n
let sat_add a b = sat (a + b)
let sat_mul a b = if a = 0 || b = 0 then 0 else if a > sat_cap / b then sat_cap else sat (a * b)

type nkind = KDoc | KElem | KAttr | KText | KComment | KPi

let kind_of_tag t =
  if t = "#document" then KDoc
  else if t = "#text" then KText
  else if t = "#comment" then KComment
  else if t = "#pi" then KPi
  else if String.length t > 0 && t.[0] = '@' then KAttr
  else KElem

(* Mirror of [Mass.Record.matches_test] over synopsis tags.  [Maybe]
   covers the one fact the synopsis loses: a processing-instruction
   target ("#pi" keeps no per-target counts). *)
type tri = Yes | No | Maybe

let matches ~principal (test : Ast.node_test) tag =
  let k = kind_of_tag tag in
  match test with
  | Ast.Name_test n -> (
      match principal with
      | KAttr -> if k = KAttr && tag = "@" ^ n then Yes else No
      | _ -> if k = KElem && tag = n then Yes else No)
  | Ast.Wildcard -> if k = principal then Yes else No
  | Ast.Text_test -> if k = KText then Yes else No
  | Ast.Comment_test -> if k = KComment then Yes else No
  | Ast.Node_test -> Yes
  | Ast.Pi_test None -> if k = KPi then Yes else No
  | Ast.Pi_test (Some _) -> if k = KPi then Maybe else No

let principal_of (axis : Ast.axis) =
  match axis with Ast.Attribute -> KAttr | _ -> KElem

(* ---- the abstract step transfer function ---- *)

let demote o = { o with exact = false; all = false }

let rec strict_descendants sch n acc =
  List.fold_left
    (fun acc c ->
      if kind_of_tag (sch.sch_tag c) = KAttr then acc
      else strict_descendants sch c (c :: acc))
    acc (sch.sch_children n)

let rec root_of sch n = match sch.sch_parent n with None -> n | Some p -> root_of sch p

let rec prefixes sch n acc =
  match sch.sch_parent n with None -> acc | Some p -> prefixes sch p (p :: acc)

(* One step of the abstract walk: push every [(node, occ)] fact through
   [axis::test] and merge contributions per target node.  Raw streams
   concatenate per-tuple outputs, so merged bounds add; a merged fact is
   exact iff every contribution was (each target record is reached the
   claimed number of times), but loses [all]/[distinct] because two
   contributions may carry the same records. *)
let walk_step sch (inp : 'n reach) (axis : Ast.axis) (test : Ast.node_test) : 'n reach =
  let principal = principal_of axis in
  let out = ref [] in
  let add n (o : occ) =
    if o.bound = 0 && o.exact then ()
    else
      match List.partition (fun (n', _) -> n' == n) !out with
      | [], _ -> out := (n, o) :: !out
      | (_, o') :: _, rest ->
          let merged =
            { bound = sat_add o.bound o'.bound;
              exact = o.exact && o'.exact;
              all = false;
              distinct = false }
          in
          out := (n, merged) :: rest
  in
  (* Exact regime for downward axes: from an [all] stream each target
     record is emitted exactly once (its ancestor at the source path is
     unique), so the synopsis count is the raw tuple count.  From a
     merely-distinct stream the count is an upper bound; from an
     arbitrary stream only [bound * count] is safe. *)
  let downward (o : occ) m matched =
    let k = sch.sch_count m in
    let ex = matched = Yes in
    if o.all then { bound = k; exact = ex; all = ex; distinct = true }
    else if o.distinct then { bound = k; exact = false; all = false; distinct = true }
    else { bound = sat_mul o.bound k; exact = false; all = false; distinct = false }
  in
  let self_occ (o : occ) matched =
    match matched with Yes -> o | _ -> demote o
  in
  (* Sibling and document-order axes give estimates, not bounds: a target
     record can be emitted once per qualifying context tuple.  The total
     synopsis count of the target path is the natural estimate (callers
     min it against the Table I bound); zero remains a sound emptiness
     proof because no matching path means no matching records. *)
  let estimate m = { bound = sch.sch_count m; exact = false; all = false; distinct = false } in
  let each (n, o) =
    let tag = sch.sch_tag n in
    let k = kind_of_tag tag in
    match axis with
    | Ast.Child ->
        List.iter
          (fun m ->
            if kind_of_tag (sch.sch_tag m) <> KAttr then
              match matches ~principal test (sch.sch_tag m) with
              | No -> ()
              | t -> add m (downward o m t))
          (sch.sch_children n)
    | Ast.Attribute ->
        List.iter
          (fun m ->
            if kind_of_tag (sch.sch_tag m) = KAttr then
              match matches ~principal test (sch.sch_tag m) with
              | No -> ()
              | t -> add m (downward o m t))
          (sch.sch_children n)
    | Ast.Descendant | Ast.Descendant_or_self ->
        if axis = Ast.Descendant_or_self then begin
          match matches ~principal test tag with
          | No -> ()
          | t -> add n (self_occ o t)
        end;
        List.iter
          (fun m ->
            match matches ~principal test (sch.sch_tag m) with
            | No -> ()
            | t -> add m (downward o m t))
          (strict_descendants sch n [])
    | Ast.Self -> (
        match matches ~principal test tag with No -> () | t -> add n (self_occ o t))
    | Ast.Parent -> (
        match sch.sch_parent n with
        | None -> ()
        | Some p -> (
            match matches ~principal test (sch.sch_tag p) with
            | No -> ()
            | t ->
                (* each context tuple has exactly one parent record *)
                add p
                  { bound = o.bound;
                    exact = o.exact && t = Yes;
                    all = false;
                    distinct = o.distinct && o.bound <= 1 }))
    | Ast.Ancestor | Ast.Ancestor_or_self ->
        if axis = Ast.Ancestor_or_self then begin
          match matches ~principal test tag with
          | No -> ()
          | t -> add n (self_occ o t)
        end;
        List.iter
          (fun p ->
            match matches ~principal test (sch.sch_tag p) with
            | No -> ()
            | t ->
                (* each context tuple has exactly one ancestor record at
                   every strict prefix path *)
                add p
                  { bound = o.bound;
                    exact = o.exact && t = Yes;
                    all = false;
                    distinct = o.distinct && o.bound <= 1 })
          (prefixes sch n [])
    | Ast.Following_sibling | Ast.Preceding_sibling -> (
        if k = KAttr then ()
        else
          match sch.sch_parent n with
          | None -> ()
          | Some p ->
              List.iter
                (fun m ->
                  if kind_of_tag (sch.sch_tag m) <> KAttr then
                    match matches ~principal test (sch.sch_tag m) with
                    | No -> ()
                    | _ -> add m (estimate m))
                (sch.sch_children p))
    | Ast.Following | Ast.Preceding ->
        let r = root_of sch n in
        List.iter
          (fun m ->
            let mk = kind_of_tag (sch.sch_tag m) in
            if mk <> KAttr && mk <> KDoc then
              match matches ~principal test (sch.sch_tag m) with
              | No -> ()
              | _ -> add m (estimate m))
          (strict_descendants sch r [])
    | Ast.Namespace -> ()
  in
  List.iter each inp;
  !out

let reach_bound (r : _ reach) = List.fold_left (fun a (_, o) -> sat_add a o.bound) 0 r
let reach_exact (r : _ reach) = List.for_all (fun (_, o) -> o.exact) r

let start_occ = { bound = 1; exact = true; all = true; distinct = true }
let roots_reach sch = List.map (fun r -> (r, start_occ)) sch.sch_roots

(* Chain estimation for the cost model: steps are [(axis, test,
   has_predicates)] root-side first; predicates demote exactness but keep
   the bound (they only filter).  Returns the raw output estimate of the
   last step and whether it is exact. *)
let chain_estimate sch spec =
  let out =
    List.fold_left
      (fun inp (axis, test, has_preds) ->
        let out = walk_step sch inp axis test in
        if has_preds then List.map (fun (n, o) -> (n, demote o)) out else out)
      (roots_reach sch) spec
  in
  (reach_bound out, reach_exact out)

(* Does [name] occur as an element tag anywhere in the synopsis? *)
let tag_known sch name =
  let rec scan n =
    sch.sch_tag n = name || List.exists scan (sch.sch_children n)
  in
  List.exists scan sch.sch_roots

(* ---- constant folding (mirrors Eval §3.4) ---- *)

type value = VBool of bool | VNum of float | VStr of string

let number_of_string s =
  let s = String.trim s in
  if s = "" then Float.nan
  else match float_of_string_opt s with Some f -> f | None -> Float.nan

let bool_of_value = function
  | VBool b -> b
  | VNum f -> f <> 0.0 && not (Float.is_nan f)
  | VStr s -> String.length s > 0

let num_of_value = function
  | VNum f -> f
  | VStr s -> number_of_string s
  | VBool b -> if b then 1.0 else 0.0

let str_of_value = function
  | VStr s -> s
  | VBool b -> if b then "true" else "false"
  | VNum f ->
      if Float.is_integer f && Float.abs f < 1e16 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%g" f

(* Comparison of two known atomic values, per §3.4 priority for [=]/[!=]
   (boolean > number > string) and forced numeric comparison for the
   relational operators. *)
let fold_compare (op : Ast.binop) a b =
  match op with
  | Ast.Eq | Ast.Neq ->
      let eq =
        match (a, b) with
        | VBool _, _ | _, VBool _ -> bool_of_value a = bool_of_value b
        | VNum _, _ | _, VNum _ ->
            let x = num_of_value a and y = num_of_value b in
            (not (Float.is_nan x)) && (not (Float.is_nan y)) && x = y
        | VStr x, VStr y -> x = y
      in
      Some (VBool (if op = Ast.Eq then eq else not eq))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      let x = num_of_value a and y = num_of_value b in
      if Float.is_nan x || Float.is_nan y then Some (VBool false)
      else
        let r =
          match op with
          | Ast.Lt -> x < y
          | Ast.Le -> x <= y
          | Ast.Gt -> x > y
          | Ast.Ge -> x >= y
          | _ -> assert false
        in
        Some (VBool r)
  | _ -> None

(* ---- the checker ---- *)

type step_note = {
  sn_axis : Ast.axis;
  sn_test : Ast.node_test;
  sn_span : Parser.span option;
  sn_bound : int;
  sn_exact : bool;
  sn_empty : bool;
}

type report = {
  rep_ty : ty;
  rep_diagnostics : diagnostic list;
  rep_steps : step_note list;
  rep_empty : bool;  (** the whole expression is a provably empty node-set *)
}

type info = {
  i_ty : ty;
  i_empty : bool;  (** provably empty node-set *)
  i_value : value option;  (** statically known result *)
}

let core_functions =
  (* name, allowed arities, return type, indices of arguments that must
     be node-sets (mirrors Eval's [call] table, which raises
     [Unsupported] on anything else) *)
  [
    ("position", [ 0 ], Num, []);
    ("last", [ 0 ], Num, []);
    ("count", [ 1 ], Num, [ 0 ]);
    ("not", [ 1 ], Bool, []);
    ("true", [ 0 ], Bool, []);
    ("false", [ 0 ], Bool, []);
    ("boolean", [ 1 ], Bool, []);
    ("number", [ 0; 1 ], Num, []);
    ("string", [ 0; 1 ], Str, []);
    ("concat", [], Str, []) (* arity >= 2, special-cased *);
    ("contains", [ 2 ], Bool, []);
    ("starts-with", [ 2 ], Bool, []);
    ("string-length", [ 0; 1 ], Num, []);
    ("normalize-space", [ 0; 1 ], Str, []);
    ("name", [ 0; 1 ], Str, [ 0 ]);
    ("local-name", [ 0; 1 ], Str, [ 0 ]);
    ("sum", [ 1 ], Num, [ 0 ]);
    ("floor", [ 1 ], Num, []);
    ("ceiling", [ 1 ], Num, []);
    ("round", [ 1 ], Num, []);
    ("substring-before", [ 2 ], Str, []);
    ("substring-after", [ 2 ], Str, []);
    ("substring", [ 2; 3 ], Str, []);
    ("translate", [ 3 ], Str, []);
  ]

type 'n ctx = {
  spans : Parser.spans option;
  mutable diags : diagnostic list;
  mutable steps : step_note list;
  mutable note_steps : bool;
      (** record {!step_note}s — on for the main location path, off
          inside predicates so notes stay 1:1 with the compiled chain *)
  opaque_literals : bool;  (** string literals are strings of unknown value *)
}

let diag ctx severity code span message = ctx.diags <- { severity; code; span; message } :: ctx.diags

let espan ctx e = match ctx.spans with None -> None | Some sp -> Parser.expr_span sp e
let sspan ctx s = match ctx.spans with None -> None | Some sp -> Parser.step_span sp s

let describe_test (t : Ast.node_test) =
  match t with
  | Ast.Name_test n -> Printf.sprintf "%S" n
  | _ -> Ast.node_test_to_string t

(* Walk a location path over the schema from [from], emitting one
   {!step_note} per step and diagnosing the first step whose reach is
   provably empty.  Relative paths are checked as if evaluated with the
   document node as context — the engine's default and the only context
   under which its schema-empty short-circuit fires. *)
let rec walk_path : 'n. 'n ctx -> 'n schema -> 'n reach -> Ast.step list -> 'n reach =
  fun ctx sch from steps ->
  match steps with
  | [] -> from
  | step :: rest ->
      let out = walk_step sch from step.Ast.axis step.Ast.test in
      let out =
        List.fold_left
          (fun out pred ->
            let pi = infer_predicate ctx sch out pred in
            match pi with
            | `Always_false -> []
            | `Always_true -> out
            | `Unknown -> List.map (fun (n, o) -> (n, demote o)) out)
          out step.Ast.predicates
      in
      let bound = reach_bound out in
      let exact = reach_exact out in
      let span = sspan ctx step in
      if ctx.note_steps then
        ctx.steps <-
          { sn_axis = step.Ast.axis;
            sn_test = step.Ast.test;
            sn_span = span;
            sn_bound = bound;
            sn_exact = exact;
            sn_empty = bound = 0 }
          :: ctx.steps;
      if bound = 0 && reach_bound from > 0 then begin
        (* first offending step: distinguish a tag unknown to the whole
           document from one merely unreachable on this axis *)
        match step.Ast.test with
        | Ast.Name_test name
          when step.Ast.axis <> Ast.Attribute && not (tag_known sch name) ->
            diag ctx Warning "unknown-tag" span
              (Printf.sprintf "element %S occurs nowhere in the document" name)
        | t ->
            diag ctx Warning "empty-step" span
              (Printf.sprintf "step %s::%s matches nothing at this point in the path"
                 (Ast.axis_name step.Ast.axis) (describe_test t))
      end;
      walk_path ctx sch out rest

(* A predicate is pushed through each candidate tuple; for schema
   reasoning we only need its truth when it is statically constant or a
   provably empty node-set (existential semantics make those false). *)
and infer_predicate : 'n. 'n ctx -> 'n schema -> 'n reach -> Ast.expr ->
  [ `Always_false | `Always_true | `Unknown ] =
  fun ctx sch from pred ->
  let pred_from =
    List.map (fun (n, _) -> (n, { bound = 1; exact = false; all = false; distinct = true })) from
  in
  let saved = ctx.note_steps in
  ctx.note_steps <- false;
  let i = infer ctx (Some (sch, pred_from)) pred in
  ctx.note_steps <- saved;
  match i.i_value with
  | Some (VNum _) -> `Unknown (* numeric predicate means position() = n *)
  | Some v ->
      let b = bool_of_value v in
      diag ctx Warning "const-predicate" (espan ctx pred)
        (Printf.sprintf "predicate is constant: always %b" b);
      if b then `Always_true else `Always_false
  | None ->
      if i.i_ty = Nodeset && i.i_empty then begin
        diag ctx Warning "empty-predicate" (espan ctx pred)
          "predicate selects a provably empty node-set: always false";
        `Always_false
      end
      else `Unknown

(* Full inference.  [env] carries the schema plus the reach the current
   expression is evaluated from ([None] when no schema is available or
   the context is unknown). *)
and infer : 'n. 'n ctx -> ('n schema * 'n reach) option -> Ast.expr -> info =
  fun ctx env e ->
  let nodeset_operand what sub =
    let i = infer ctx env sub in
    if i.i_ty <> Nodeset && i.i_ty <> Unknown then
      diag ctx Error "type-error" (espan ctx e)
        (Printf.sprintf "%s requires a node-set, found %s" what (ty_to_string i.i_ty));
    i
  in
  match e with
  | Ast.Path p ->
      let empty =
        match env with
        | Some (sch, from) ->
            let from = if p.Ast.absolute then roots_reach sch else from in
            let out = walk_path ctx sch from p.Ast.steps in
            reach_bound out = 0
        | None ->
            (* no schema: no cardinality claims, but predicates still get
               type-checked *)
            List.iter
              (fun (st : Ast.step) ->
                List.iter (fun pr -> infer_filter_predicate ctx None pr) st.Ast.predicates)
              p.Ast.steps;
            false
      in
      { i_ty = Nodeset; i_empty = empty; i_value = None }
  | Ast.Literal s ->
      { i_ty = Str; i_empty = false; i_value = (if ctx.opaque_literals then None else Some (VStr s)) }
  | Ast.Number f -> { i_ty = Num; i_empty = false; i_value = Some (VNum f) }
  | Ast.Var _ -> { i_ty = Unknown; i_empty = false; i_value = None }
  | Ast.Neg sub ->
      let i = infer ctx env sub in
      check_numeric ctx sub i;
      let value = match i.i_value with Some v -> Some (VNum (-.num_of_value v)) | None -> None in
      { i_ty = Num; i_empty = false; i_value = value }
  | Ast.Binop (op, a, b) -> infer_binop ctx env e op a b
  | Ast.Call (f, args) -> infer_call ctx env e f args
  | Ast.Filter (sub, preds) ->
      let i = nodeset_operand "a filter expression" sub in
      (* the filter's context nodes are unknown statically, so predicate
         sub-paths are type-checked without schema reasoning *)
      List.iter (fun p -> infer_filter_predicate ctx None p) preds;
      { i_ty = Nodeset; i_empty = i.i_ty = Nodeset && i.i_empty; i_value = None }
  | Ast.Located (sub, p) ->
      let i = nodeset_operand "a path-start expression" sub in
      (* the base reach is unknown (any node the filter selects), so the
         relative steps are only type-checked, not schema-walked; if the
         base is provably empty, so is the whole expression *)
      let saved = ctx.note_steps in
      ctx.note_steps <- false;
      List.iter
        (fun (s : Ast.step) ->
          List.iter (fun pr -> infer_filter_predicate ctx None pr) s.Ast.predicates)
        p.Ast.steps;
      ctx.note_steps <- saved;
      { i_ty = Nodeset; i_empty = i.i_ty = Nodeset && i.i_empty; i_value = None }

and infer_filter_predicate : 'n. 'n ctx -> ('n schema * 'n reach) option -> Ast.expr ->
  unit =
  fun ctx env p ->
  let i = infer ctx env p in
  match i.i_value with
  | Some (VNum _) | None -> ()
  | Some v ->
      diag ctx Warning "const-predicate" (espan ctx p)
        (Printf.sprintf "predicate is constant: always %b" (bool_of_value v))

and check_numeric : 'n. 'n ctx -> Ast.expr -> info -> unit =
  fun ctx sub i ->
  match i.i_value with
  | Some (VStr s) when Float.is_nan (number_of_string s) ->
      diag ctx Warning "nan-arith" (espan ctx sub)
        (Printf.sprintf "string %S is not a number: arithmetic yields NaN" s)
  | _ -> ()

and infer_binop : 'n. 'n ctx -> ('n schema * 'n reach) option -> Ast.expr -> Ast.binop ->
  Ast.expr -> Ast.expr -> info =
  fun ctx env e op a b ->
  let ia = infer ctx env a in
  let ib = infer ctx env b in
  match op with
  | Ast.Or | Ast.And ->
      let value =
        match (ia.i_value, ib.i_value) with
        | Some va, Some vb ->
            let x = bool_of_value va and y = bool_of_value vb in
            Some (VBool (if op = Ast.Or then x || y else x && y))
        | _ -> None
      in
      { i_ty = Bool; i_empty = false; i_value = value }
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      infer_comparison ctx e op ia ib a b
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
      check_numeric ctx a ia;
      check_numeric ctx b ib;
      let value =
        match (ia.i_value, ib.i_value) with
        | Some va, Some vb ->
            let x = num_of_value va and y = num_of_value vb in
            let r =
              match op with
              | Ast.Add -> x +. y
              | Ast.Sub -> x -. y
              | Ast.Mul -> x *. y
              | Ast.Div -> x /. y
              | Ast.Mod -> Float.rem x y
              | _ -> assert false
            in
            Some (VNum r)
        | _ -> None
      in
      { i_ty = Num; i_empty = false; i_value = value }
  | Ast.Union ->
      List.iter
        (fun (sub, i) ->
          if i.i_ty <> Nodeset && i.i_ty <> Unknown then
            diag ctx Error "type-error" (espan ctx sub)
              (Printf.sprintf "union operand must be a node-set, found %s" (ty_to_string i.i_ty)))
        [ (a, ia); (b, ib) ];
      { i_ty = Nodeset;
        i_empty = ia.i_ty = Nodeset && ia.i_empty && ib.i_ty = Nodeset && ib.i_empty;
        i_value = None }

and infer_comparison : 'n. 'n ctx -> Ast.expr -> Ast.binop -> info -> info -> Ast.expr ->
  Ast.expr -> info =
  fun ctx e op ia ib a b ->
  let relational = match op with Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true | _ -> false in
  (* a provably empty node-set operand makes any §3.4 existential
     comparison false — including [!=] *)
  if (ia.i_ty = Nodeset && ia.i_empty) || (ib.i_ty = Nodeset && ib.i_empty) then begin
    diag ctx Warning "const-compare" (espan ctx e)
      "comparison with a provably empty node-set: always false";
    { i_ty = Bool; i_empty = false; i_value = Some (VBool false) }
  end
  else begin
    (match (ia.i_ty, ib.i_ty) with
    | Nodeset, Bool | Bool, Nodeset ->
        if not relational then
          diag ctx Warning "lossy-coercion" (espan ctx e)
            "node-set compared to a boolean tests existence, not value"
    | _ -> ());
    (if relational then
       let warn_side sub i =
         match i.i_value with
         | Some (VStr s) when Float.is_nan (number_of_string s) ->
             diag ctx Warning "const-compare" (espan ctx sub)
               (Printf.sprintf
                  "string %S is not a number: relational comparison is always false" s)
         | _ -> ()
       in
       warn_side a ia;
       warn_side b ib);
    let value =
      match (ia.i_value, ib.i_value) with
      | Some va, Some vb -> fold_compare op va vb
      | _ ->
          (* number =/!= non-numeric string: NaN never equals, so the
             verdict is constant even though one side is dynamic *)
          let nan_vs_number i j =
            (match i.i_value with
            | Some (VStr s) -> Float.is_nan (number_of_string s)
            | Some (VNum f) -> Float.is_nan f
            | _ -> false)
            && j.i_ty = Num && not relational
          in
          if nan_vs_number ia ib || nan_vs_number ib ia then
            Some (VBool (op = Ast.Neq))
          else None
    in
    (match value with
    | Some v when ia.i_value = None || ib.i_value = None ->
        diag ctx Warning "const-compare" (espan ctx e)
          (Printf.sprintf "comparison is constant: always %b" (bool_of_value v))
    | Some v when ia.i_value <> None && ib.i_value <> None ->
        diag ctx Info "const-compare" (espan ctx e)
          (Printf.sprintf "comparison of constants: always %b" (bool_of_value v))
    | _ -> ());
    { i_ty = Bool; i_empty = false; i_value = value }
  end

and infer_call : 'n. 'n ctx -> ('n schema * 'n reach) option -> Ast.expr -> string ->
  Ast.expr list -> info =
  fun ctx env e f args ->
  let infos = List.map (fun a -> infer ctx env a) args in
  let n = List.length args in
  let ret =
    if f = "concat" then begin
      if n < 2 then
        diag ctx Error "unknown-function" (espan ctx e)
          (Printf.sprintf "function concat/%d: concat needs at least two arguments" n);
      Str
    end
    else
      match List.find_opt (fun (name, _, _, _) -> name = f) core_functions with
      | None ->
          diag ctx Error "unknown-function" (espan ctx e)
            (Printf.sprintf "unknown function %s/%d" f n);
          Unknown
      | Some (_, arities, ret, nodeset_args) ->
          if not (List.mem n arities) then
            diag ctx Error "unknown-function" (espan ctx e)
              (Printf.sprintf "function %s/%d: wrong number of arguments" f n);
          List.iteri
            (fun idx i ->
              if List.mem idx nodeset_args && i.i_ty <> Nodeset && i.i_ty <> Unknown then
                diag ctx Error "type-error" (espan ctx e)
                  (Printf.sprintf "%s expects a node-set argument, found %s" f
                     (ty_to_string i.i_ty)))
            infos;
          ret
  in
  let value =
    match (f, infos) with
    | "true", [] -> Some (VBool true)
    | "false", [] -> Some (VBool false)
    | "not", [ { i_value = Some v; _ } ] -> Some (VBool (not (bool_of_value v)))
    | "not", [ { i_ty = Nodeset; i_empty = true; _ } ] -> Some (VBool true)
    | "boolean", [ { i_value = Some v; _ } ] -> Some (VBool (bool_of_value v))
    | "boolean", [ { i_ty = Nodeset; i_empty = true; _ } ] -> Some (VBool false)
    | "number", [ { i_value = Some v; _ } ] -> Some (VNum (num_of_value v))
    | "string", [ { i_value = Some v; _ } ] -> Some (VStr (str_of_value v))
    | "count", [ { i_ty = Nodeset; i_empty = true; _ } ] -> Some (VNum 0.0)
    | _ -> None
  in
  { i_ty = ret; i_empty = false; i_value = value }

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let check : type n.
    ?schema:n schema -> ?spans:Parser.spans -> ?opaque_literals:bool -> Ast.expr -> report =
 fun ?schema ?spans ?(opaque_literals = false) e ->
  let ctx = { spans; diags = []; steps = []; note_steps = true; opaque_literals } in
  let env =
    match schema with None -> None | Some sch -> Some (sch, roots_reach sch)
  in
  let i = infer ctx env e in
  {
    rep_ty = i.i_ty;
    rep_diagnostics =
      List.stable_sort
        (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity))
        (List.rev ctx.diags);
    rep_steps = List.rev ctx.steps;
    rep_empty = i.i_ty = Nodeset && i.i_empty;
  }

let diagnostic_to_string d =
  Printf.sprintf "%s [%s] %s" (severity_to_string d.severity) d.code d.message

let pp_diagnostic ?src ppf d =
  Format.fprintf ppf "%s" (diagnostic_to_string d);
  match (src, d.span) with
  | Some src, Some span -> Format.fprintf ppf "@\n%s" (Parser.caret ~src span)
  | _ -> ()
