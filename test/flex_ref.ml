(* Reference FLEX keys: the original component-array representation,
   kept as a test oracle for the packed single-string keys in [Flex].
   Component generation ([between], [sequence]) is shared and lives only
   in [Flex]. *)

type t = string array
(* Invariant: every element satisfies [is_valid_component]. *)

let is_valid_component s =
  let n = String.length s in
  n > 0
  && s.[n - 1] <> 'a'
  &&
  let ok = ref true in
  String.iter (fun c -> if c < 'a' || c > 'z' then ok := false) s;
  !ok

let check_component s =
  if not (is_valid_component s) then
    invalid_arg (Printf.sprintf "Flex: invalid component %S" s)

let document : t = [||]
let of_components cs =
  List.iter check_component cs;
  Array.of_list cs

let components k = Array.to_list k
let depth = Array.length

let child k c =
  check_component c;
  Array.append k [| c |]

let parent k =
  if Array.length k = 0 then None else Some (Array.sub k 0 (Array.length k - 1))

let last_component k =
  if Array.length k = 0 then None else Some k.(Array.length k - 1)

let prefix k d =
  if d < 0 || d > Array.length k then invalid_arg "Flex.prefix: bad depth";
  Array.sub k 0 d

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = String.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0

let is_ancestor a k =
  let la = Array.length a and lk = Array.length k in
  la < lk
  &&
  let rec go i = i >= la || (String.equal a.(i) k.(i) && go (i + 1)) in
  go 0

let is_ancestor_or_self a k = equal a k || is_ancestor a k

let common_ancestor a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i = if i < n && String.equal a.(i) b.(i) then go (i + 1) else i in
  Array.sub a 0 (go 0)

type bound = Min | Before of t | After_key of t | After_subtree of t | Max

let bound_compare_key b k =
  match b with
  | Min -> -1
  | Max -> 1
  | Before t -> if compare t k <= 0 then -1 else 1
  | After_key t -> if compare t k < 0 then -1 else 1
  | After_subtree t -> if compare t k < 0 && not (is_ancestor t k) then -1 else 1

let key_in_range ~lo ~hi k = bound_compare_key lo k < 0 && bound_compare_key hi k > 0
let subtree_range k = (Before k, After_subtree k)
let descendants_range k = (After_key k, After_subtree k)

let pp_sep = '.'

let to_string k =
  if Array.length k = 0 then "/" else String.concat "." (Array.to_list k)

let of_string s =
  if String.equal s "/" then document
  else of_components (String.split_on_char pp_sep s)

let encode k = String.concat "\x01" (Array.to_list k)

let decode s =
  if String.length s = 0 then document
  else of_components (String.split_on_char '\x01' s)

let pp ppf k = Format.pp_print_string ppf (to_string k)
