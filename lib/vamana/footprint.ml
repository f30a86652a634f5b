(* Read-footprint analysis (DESIGN.md §11).

   The abstract domain is a flat lattice: ⊤, or a finite set of atoms in
   four sorts sharing the store's write-delta vocabulary.  Every rule
   errs upward — a construct we cannot bound precisely contributes ⊤ —
   so [intersects fp delta = false] is a proof of non-interference,
   checked exhaustively on the small-scope domain by the Smallcheck
   interference family. *)

module Ast = Xpath.Ast
module Record = Mass.Record
module SS = Set.Make (String)

(* Record kinds as a bitmask, for wildcard/node() reads where no finite
   tag set covers the step. *)
let kbit = function
  | Record.Document -> 1
  | Record.Element -> 2
  | Record.Attribute -> 4
  | Record.Text -> 8
  | Record.Comment -> 16
  | Record.Pi -> 32

let all_node_kinds =
  (* node() on a non-attribute axis: any non-attribute node. *)
  kbit Record.Document lor kbit Record.Element lor kbit Record.Text
  lor kbit Record.Comment lor kbit Record.Pi

type atoms = { tags : SS.t; kinds : int; values : SS.t; cones : SS.t }
type t = Top | Atoms of atoms

let empty = Atoms { tags = SS.empty; kinds = 0; values = SS.empty; cones = SS.empty }
let top = Top
let is_top = function Top -> true | Atoms _ -> false

let is_empty = function
  | Top -> false
  | Atoms a -> SS.is_empty a.tags && a.kinds = 0 && SS.is_empty a.values && SS.is_empty a.cones

(* Past this many atoms the footprint is no longer a useful filter and
   set operations stop being cheap; collapse to ⊤. *)
let atom_cap = 64

let normalize = function
  | Top -> Top
  | Atoms a as t ->
      if SS.cardinal a.tags + SS.cardinal a.values + SS.cardinal a.cones > atom_cap then Top
      else t

let union a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Atoms x, Atoms y ->
      normalize
        (Atoms
           {
             tags = SS.union x.tags y.tags;
             kinds = x.kinds lor y.kinds;
             values = SS.union x.values y.values;
             cones = SS.union x.cones y.cones;
           })

let subsumes a b =
  match (a, b) with
  | Top, _ -> true
  | Atoms _, Top -> false
  | Atoms x, Atoms y ->
      SS.subset y.tags x.tags
      && y.kinds land lnot x.kinds = 0
      && SS.subset y.values x.values
      && SS.subset y.cones x.cones

(* {1 Collection} *)

type acc = {
  mutable a_tags : SS.t;
  mutable a_kinds : int;
  mutable a_values : SS.t;
  mutable a_cones : SS.t;
  mutable a_top : bool;
}

let fresh_acc () =
  { a_tags = SS.empty; a_kinds = 0; a_values = SS.empty; a_cones = SS.empty; a_top = false }

let add_tag acc n = acc.a_tags <- SS.add n acc.a_tags
let add_kind acc bits = acc.a_kinds <- acc.a_kinds lor bits
let add_value acc v = acc.a_values <- SS.add v acc.a_values
let add_cone acc c = acc.a_cones <- SS.add c acc.a_cones
let to_top acc = acc.a_top <- true

(* Atoms of one location-step test: the name-index posting lists (or
   kind classes) the step's candidate scan depends on.  Sound for the
   step's own output and for position()/last() within it: positions are
   counted among axis candidates passing this same test, so any insert
   or delete that shifts them carries a matching tag/kind in its
   delta. *)
let add_test acc axis (test : Ast.node_test) =
  let attribute_axis = axis = Ast.Attribute in
  match test with
  | Ast.Name_test n -> add_tag acc (if attribute_axis then "@" ^ n else n)
  | Ast.Wildcard ->
      add_kind acc (kbit (if attribute_axis then Record.Attribute else Record.Element))
  | Ast.Text_test -> add_tag acc "#text"
  | Ast.Comment_test -> add_tag acc "#comment"
  | Ast.Pi_test _ -> add_tag acc "#pi"
  | Ast.Node_test ->
      add_kind acc (if attribute_axis then kbit Record.Attribute else all_node_kinds)

(* String-value cone of the nodes a sub-plan (or path tail) emits.
   Only element and document nodes have mutable string-values (text
   inserted anywhere below changes them); attribute/text/comment/PI
   values are immutable in the store, and set-membership changes are
   already covered by the step's tag atoms. *)
let add_emit_cone acc axis (test : Ast.node_test) =
  if axis <> Ast.Attribute then
    match test with
    | Ast.Name_test n -> add_cone acc n
    | Ast.Wildcard | Ast.Node_test -> add_cone acc "*"
    | Ast.Text_test | Ast.Comment_test | Ast.Pi_test _ -> ()

(* Core functions whose value is fully determined by their (walked)
   arguments plus the candidate set already covered by step atoms.
   Notably absent: id() reads attribute values document-wide. *)
let pure_functions =
  [
    "position"; "last"; "count"; "not"; "true"; "false"; "string"; "number"; "boolean";
    "concat"; "contains"; "starts-with"; "substring"; "substring-before"; "substring-after";
    "string-length"; "normalize-space"; "translate"; "name"; "local-name"; "floor";
    "ceiling"; "round"; "sum";
  ]

let rec walk_expr acc (e : Ast.expr) =
  match e with
  | Ast.Literal _ | Ast.Number _ -> ()
  | Ast.Var _ -> to_top acc
  | Ast.Path p -> walk_path acc p
  | Ast.Binop (_, a, b) ->
      walk_expr acc a;
      walk_expr acc b
  | Ast.Neg e -> walk_expr acc e
  | Ast.Call (f, args) ->
      if not (List.mem f pure_functions) then to_top acc;
      List.iter (walk_expr acc) args
  | Ast.Filter (e, preds) ->
      walk_expr acc e;
      List.iter (walk_expr acc) preds
  | Ast.Located (e, p) ->
      walk_expr acc e;
      walk_path acc p

and walk_path acc (p : Ast.path) =
  List.iter
    (fun (s : Ast.step) ->
      add_test acc s.axis s.test;
      List.iter (walk_expr acc) s.predicates)
    p.steps;
  (* The path's node-set may be converted to a string or number by the
     enclosing expression; blanket the final step's string-value cone. *)
  match List.rev p.steps with
  | last :: _ -> add_emit_cone acc last.axis last.test
  | [] -> add_cone acc (if p.absolute then "#document" else "*")

(* Cone of a predicate operand: the string-values the comparison reads.
   The emitting operator is the sub-plan's top op; [R] echoes its
   context chain, and a context-less [R] echoes the candidate itself,
   whose element tag is unknown statically. *)
let rec operand_cones acc (op : Plan.op) =
  match op.kind with
  | Plan.Root -> (
      match op.context with Some c -> operand_cones acc c | None -> add_cone acc "*")
  | Plan.Step (axis, test) -> add_emit_cone acc axis test
  | Plan.Step_generic s -> add_emit_cone acc s.Ast.axis s.Ast.test
  | Plan.Value_step _ ->
      (* Emits the nodes holding an immutable indexed value; membership
         changes are covered by the value atom. *)
      ()

let rec walk_op acc (op : Plan.op) =
  (match op.kind with
  | Plan.Root -> ()
  | Plan.Step (axis, test) -> add_test acc axis test
  | Plan.Value_step (v, _) -> add_value acc v
  | Plan.Step_generic s ->
      add_test acc s.Ast.axis s.Ast.test;
      List.iter (walk_expr acc) s.Ast.predicates);
  List.iter (walk_pred acc) op.predicates;
  match op.context with Some c -> walk_op acc c | None -> ()

and walk_pred acc (p : Plan.pred) =
  match p with
  | Plan.Exists sub -> walk_op acc sub
  | Plan.Binary (_, _, a, b) ->
      walk_operand acc a;
      walk_operand acc b
  | Plan.And (a, b) | Plan.Or (a, b) ->
      walk_pred acc a;
      walk_pred acc b
  | Plan.Not p -> walk_pred acc p
  | Plan.Position (_, _) ->
      (* position() cmp n: counted among the owning step's candidates,
         covered by that step's own test atoms. *)
      ()
  | Plan.Generic e -> walk_expr acc e

and walk_operand acc (o : Plan.operand) =
  match o with
  | Plan.Literal (_, _) | Plan.Number_operand _ -> ()
  | Plan.Path_operand sub ->
      walk_op acc sub;
      operand_cones acc sub

let close acc =
  if acc.a_top then Top
  else
    normalize
      (Atoms { tags = acc.a_tags; kinds = acc.a_kinds; values = acc.a_values; cones = acc.a_cones })

let of_plan op =
  let acc = fresh_acc () in
  walk_op acc op;
  close acc

let of_plans ops = List.fold_left (fun t op -> union t (of_plan op)) empty ops

(* {1 Intersection with a write delta} *)

let kind_of_tag tag =
  if String.length tag > 0 && tag.[0] = '@' then Record.Attribute
  else
    match tag with
    | "#text" -> Record.Text
    | "#comment" -> Record.Comment
    | "#pi" -> Record.Pi
    | "#document" -> Record.Document
    | _ -> Record.Element

let intersects t (wd : Mass.Store.write_delta) =
  match t with
  | Top -> true
  | Atoms a ->
      wd.Mass.Store.wd_top
      || List.exists
           (fun tag -> SS.mem tag a.tags || a.kinds land kbit (kind_of_tag tag) <> 0)
           wd.Mass.Store.wd_tags
      || List.exists (fun v -> SS.mem v a.values) wd.Mass.Store.wd_values
      || (wd.Mass.Store.wd_cones <> []
         && (SS.mem "*" a.cones
            || List.exists (fun c -> SS.mem c a.cones) wd.Mass.Store.wd_cones))

(* {1 Rendering} *)

let kind_names bits =
  List.filter_map
    (fun k -> if bits land kbit k <> 0 then Some (String.lowercase_ascii (Record.kind_to_string k)) else None)
    [ Record.Document; Record.Element; Record.Attribute; Record.Text; Record.Comment; Record.Pi ]

let atoms = function
  | Top -> [ "top" ]
  | Atoms a ->
      List.sort String.compare
        (List.concat
           [
             List.map (fun s -> "tag:" ^ s) (SS.elements a.tags);
             List.map (fun s -> "kind:" ^ s) (kind_names a.kinds);
             List.map (fun s -> "value:" ^ s) (SS.elements a.values);
             List.map (fun s -> "cone:" ^ s) (SS.elements a.cones);
           ])

let to_string t =
  match t with
  | Top -> "\xe2\x8a\xa4"
  | Atoms _ when is_empty t -> "\xe2\x88\x85"
  | Atoms _ -> String.concat " " (atoms t)

let to_json t =
  let module J = Profile.Json in
  let strs l = J.Arr (List.map (fun s -> J.Str s) l) in
  match t with
  | Top ->
      J.Obj
        [
          ("top", J.Bool true); ("tags", J.Arr []); ("kinds", J.Arr []); ("values", J.Arr []);
          ("cones", J.Arr []);
        ]
  | Atoms a ->
      J.Obj
        [
          ("top", J.Bool false);
          ("tags", strs (SS.elements a.tags));
          ("kinds", strs (kind_names a.kinds));
          ("values", strs (SS.elements a.values));
          ("cones", strs (SS.elements a.cones));
        ]
