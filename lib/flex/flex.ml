type t = string
(* Invariant: [""] (the document) or valid components joined by [sep]. *)

let sep = '\x01'
let alphabet_base = 26
let code c = Char.code c - Char.code 'a'
let chr d = Char.chr (d + Char.code 'a')

let is_valid_component s =
  let n = String.length s in
  n > 0 && s.[n - 1] <> 'a' && String.for_all (fun c -> c >= 'a' && c <= 'z') s

let check_component s =
  if not (is_valid_component s) then invalid_arg (Printf.sprintf "Flex: invalid component %S" s)

let document : t = ""
let of_components cs =
  List.iter check_component cs;
  String.concat "\x01" cs

let depth k =
  if k = "" then 0 else String.fold_left (fun n c -> if c = sep then n + 1 else n) 1 k

let child k c =
  check_component c;
  if k = "" then c else String.concat "\x01" [ k; c ]

(* start of the last component of a non-document key *)
let last_start k = match String.rindex_opt k sep with Some i -> i + 1 | None -> 0
let parent k = if k = "" then None else Some (String.sub k 0 (max 0 (last_start k - 1)))

let last_component k =
  if k = "" then None else Some (String.sub k (last_start k) (String.length k - last_start k))

(* the first [sep] at or after [i], or the key's length *)
let rec sep_from k i = if i >= String.length k || k.[i] = sep then i else sep_from k (i + 1)

(* the end of the [d]th component counted from the one starting at [i],
   or -1 if the key runs out first; allocation-free *)
let rec prefix_end k d i =
  let j = sep_from k i in
  if d = 1 then j else if j = String.length k then -1 else prefix_end k (d - 1) (j + 1)

let prefix k d =
  if d = 0 then document
  else
    let e = if d < 0 || k = "" then -1 else prefix_end k d 0 in
    if e < 0 then invalid_arg "Flex.prefix: bad depth"
    else if e = String.length k then k
    else String.sub k 0 e

let compare = String.compare
let equal = String.equal

(* bytes [i, n) of [a] and [k] agree; unlike [String.starts_with], no
   closure is allocated per call *)
let rec same_bytes a k i n = i = n || (a.[i] = k.[i] && same_bytes a k (i + 1) n)

let is_ancestor a k =
  let la = String.length a in
  String.length k > la && (la = 0 || (k.[la] = sep && same_bytes a k 0 la))

let is_ancestor_or_self a k = equal a k || is_ancestor a k

let is_parent p k =
  is_ancestor p k && not (String.contains_from k (if p = "" then 0 else String.length p + 1) sep)

(* the longest common byte prefix, cut back to a component boundary *)
let common_ancestor a b =
  let la = String.length a and lb = String.length b in
  let rec lcp i = if i < la && i < lb && a.[i] = b.[i] then lcp (i + 1) else i in
  let i = lcp 0 in
  let boundary s l = i = l || s.[i] = sep in
  if boundary a la && boundary b lb then String.sub a 0 i
  else match String.rindex_from_opt a (i - 1) sep with Some j -> String.sub a 0 j | None -> document

(* Midpoint of two component strings, treated as base-26 fractions over
   digits 'a'(=0) .. 'z'(=25).  The no-trailing-'a' invariant on inputs
   guarantees that a strict midpoint exists whenever [lo < hi]; the
   algorithm below (standard fractional indexing) also never produces a
   trailing 'a'. *)
let between lo hi =
  Option.iter check_component lo;
  Option.iter check_component hi;
  (match lo, hi with
  | Some a, Some b when String.compare a b >= 0 ->
      invalid_arg (Printf.sprintf "Flex.between: %S >= %S" a b)
  | _ -> ());
  let buf = Buffer.create 8 in
  (* [mid a b]: append to [buf] digits of a string strictly between [a]
     (or -inf when [a] exhausted at position 0 with [ia >= len]) and [b]
     (+inf when [b = None]). *)
  let rec mid a ia b ib =
    let digit_a = if ia < String.length a then code a.[ia] else 0 in
    let digit_b =
      match b with
      | Some b when ib < String.length b -> code b.[ib]
      | Some _ -> alphabet_base (* past end of b: unreachable when a < b *)
      | None -> alphabet_base
    in
    if digit_a = digit_b then begin
      (* common digit: copy and recurse *)
      Buffer.add_char buf (chr digit_a);
      mid a (ia + 1) b (ib + 1)
    end
    else if digit_b - digit_a > 1 then
      (* room for a digit strictly in between; never 'a' since mid > 0 *)
      Buffer.add_char buf (chr ((digit_a + digit_b + 1) / 2))
    else begin
      (* consecutive digits *)
      match b with
      | Some bs when ib + 1 < String.length bs ->
          (* b continues past this digit, so the proper prefix of b ending
             here is strictly between a and b (its last digit is >= 'b'
             because digit_b > digit_a >= 0) *)
          Buffer.add_char buf (chr digit_b)
      | _ ->
          (* descend along a with +inf upper bound *)
          Buffer.add_char buf (chr digit_a);
          mid a (ia + 1) None 0
    end
  in
  let a = match lo with Some a -> a | None -> "" in
  mid a 0 hi 0;
  let r = Buffer.contents buf in
  assert (is_valid_component r);
  r

let first_child_component = "n"

(* [sequence n] enumerates [n] components of equal width over the 25
   digits 'b'..'z' (avoiding 'a' entirely keeps the invariant and equal
   widths keep the order lexicographic). *)
let sequence n =
  if n < 0 then invalid_arg "Flex.sequence: negative count";
  if n = 0 then []
  else begin
    let digits = 25 in
    let width =
      let rec go w cap = if cap >= n then w else go (w + 1) (cap * digits) in
      go 1 digits
    in
    (* digit [pos] of [i] in base [digits], most significant first *)
    let rec digit i pos = if pos = width - 1 then i mod digits else digit (i / digits) (pos + 1) in
    let component i = String.init width (fun pos -> Char.chr (Char.code 'b' + digit i pos)) in
    List.init n component
  end

type bound = Min | Before of t | After_key of t | After_subtree of t | Max

(* [k] sorts after [t ^ "\x02"], i.e. past [t]'s whole subtree, comparing
   from byte [i]: one pass, no allocation.  A descendant continues [t] with
   [sep] < '\x02'; a later key differs upward before [t] ends or continues
   it with a letter. *)
let rec past_subtree t k i =
  if i = String.length t then i < String.length k && k.[i] > '\x02'
  else i < String.length k && if t.[i] = k.[i] then past_subtree t k (i + 1) else k.[i] > t.[i]

let bound_compare_key b k =
  match b with
  | Min -> -1
  | Max -> 1
  | Before t -> if String.compare t k <= 0 then -1 else 1
  | After_key t -> if String.compare t k < 0 then -1 else 1
  | After_subtree t -> if t <> "" && past_subtree t k 0 then -1 else 1

let key_in_range ~lo ~hi k = bound_compare_key lo k < 0 && bound_compare_key hi k > 0
let subtree_range k = (Before k, After_subtree k)
let descendants_range k = (After_key k, After_subtree k)

let to_string k = if k = "" then "/" else String.map (fun c -> if c = sep then '.' else c) k

let of_string s =
  if String.equal s "/" then document else of_components (String.split_on_char '.' s)

let encode k = k

let decode s =
  let n = String.length s in
  (* [prev]: the previous byte, or [sep] at the start of a component *)
  let rec ok i prev =
    if i = n then n = 0 || (prev <> sep && prev <> 'a')
    else match s.[i] with
      | 'a' .. 'z' as c -> ok (i + 1) c
      | c -> c = sep && prev <> sep && prev <> 'a' && ok (i + 1) sep
  in
  if ok 0 sep then s else invalid_arg (Printf.sprintf "Flex.decode: malformed key %S" s)

let pp ppf k = Format.pp_print_string ppf (to_string k)
