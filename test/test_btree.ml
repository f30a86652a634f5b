(* Tests for the counted B+-tree, including a model-based property suite. *)

module IntKey = struct
  type t = int

  let compare = Int.compare
  let pp = Format.pp_print_int
end

module T = Btree.Make (IntKey)

let mk ?(order = 4) entries =
  let t = T.create ~order () in
  List.iter (fun (k, v) -> T.insert t k v) entries;
  t

let test_empty () =
  let t = T.create () in
  Alcotest.(check int) "length" 0 (T.length t);
  Alcotest.(check int) "height" 1 (T.height t);
  Alcotest.(check bool) "find" true (T.find t 3 = None);
  Alcotest.(check bool) "min" true (T.min_binding t = None);
  Alcotest.(check bool) "max" true (T.max_binding t = None);
  T.check_invariants t

let test_insert_find () =
  let t = mk (List.init 100 (fun i -> (i * 3, string_of_int i))) in
  T.check_invariants t;
  Alcotest.(check int) "length" 100 (T.length t);
  Alcotest.(check bool) "height grew" true (T.height t > 1);
  for i = 0 to 99 do
    Alcotest.(check (option string)) "present" (Some (string_of_int i)) (T.find t (i * 3));
    Alcotest.(check (option string)) "absent" None (T.find t ((i * 3) + 1))
  done

let test_upsert () =
  let t = mk [ (1, "a"); (2, "b") ] in
  T.insert t 1 "z";
  Alcotest.(check int) "length unchanged" 2 (T.length t);
  Alcotest.(check (option string)) "replaced" (Some "z") (T.find t 1);
  T.check_invariants t

let test_delete () =
  let t = mk (List.init 50 (fun i -> (i, i))) in
  Alcotest.(check bool) "delete present" true (T.delete t 25);
  Alcotest.(check bool) "delete absent" false (T.delete t 25);
  Alcotest.(check int) "length" 49 (T.length t);
  Alcotest.(check (option int)) "gone" None (T.find t 25);
  T.check_invariants t;
  (* empty out a whole region; cursors must skip the empty leaves *)
  for i = 10 to 20 do
    ignore (T.delete t i)
  done;
  T.check_invariants t;
  let c = T.seek_key t 9 in
  Alcotest.(check (option (pair int int))) "9 present" (Some (9, 9)) (T.next c);
  Alcotest.(check (option (pair int int))) "jumps region" (Some (21, 21)) (T.next c)

let test_ordered_iteration () =
  let entries = List.init 200 (fun i -> (i * 7 mod 401, i)) in
  let t = mk entries in
  let keys = List.map fst (T.to_list t) in
  let sorted = List.sort_uniq Int.compare (List.map fst entries) in
  Alcotest.(check (list int)) "iteration sorted" sorted keys

let test_cursor_bidirectional () =
  let t = mk (List.init 30 (fun i -> (i, i))) in
  let c = T.seek_key t 10 in
  Alcotest.(check (option (pair int int))) "next" (Some (10, 10)) (T.next c);
  Alcotest.(check (option (pair int int))) "next again" (Some (11, 11)) (T.next c);
  Alcotest.(check (option (pair int int))) "back" (Some (11, 11)) (T.prev c);
  Alcotest.(check (option (pair int int))) "back again" (Some (10, 10)) (T.prev c);
  Alcotest.(check (option (pair int int))) "back once more" (Some (9, 9)) (T.prev c);
  let c = T.seek_min t in
  Alcotest.(check (option (pair int int))) "prev at min" None (T.prev c);
  let c = T.seek_max t in
  Alcotest.(check (option (pair int int))) "next at max" None (T.next c);
  Alcotest.(check (option (pair int int))) "prev at max" (Some (29, 29)) (T.prev c)

let test_peek () =
  let t = mk [ (1, 1); (2, 2) ] in
  let c = T.seek_min t in
  Alcotest.(check (option (pair int int))) "peek" (Some (1, 1)) (T.peek c);
  Alcotest.(check (option (pair int int))) "peek does not advance" (Some (1, 1)) (T.next c)

let test_rank_count () =
  let t = mk (List.init 100 (fun i -> (2 * i, i))) in
  (* keys 0,2,...,198 *)
  Alcotest.(check int) "rank of 50-bound" 25 (T.rank t (fun k -> Int.compare k 50));
  Alcotest.(check int) "rank of odd bound" 26 (T.rank t (fun k -> Int.compare k 51));
  Alcotest.(check int) "count [10,20)" 5
    (T.count_range t ~lo:(fun k -> Int.compare k 10) ~hi:(fun k -> Int.compare k 20));
  Alcotest.(check int) "count everything" 100
    (T.count_range t ~lo:(fun _ -> 0) ~hi:(fun _ -> -1));
  Alcotest.(check int) "count empty range" 0
    (T.count_range t ~lo:(fun k -> Int.compare k 20) ~hi:(fun k -> Int.compare k 10))

let test_count_without_data_reads () =
  (* counting must touch O(height) pages, far fewer than iterating *)
  let t = mk ~order:8 (List.init 5000 (fun i -> (i, i))) in
  let s0 = (T.stats t).Storage.Stats.logical_reads in
  let n = T.count_range t ~lo:(fun k -> Int.compare k 100) ~hi:(fun k -> Int.compare k 4900) in
  let reads = (T.stats t).Storage.Stats.logical_reads - s0 in
  Alcotest.(check int) "count correct" 4800 n;
  Alcotest.(check bool)
    (Printf.sprintf "count touched %d pages (<= 2*height+2)" reads)
    true
    (reads <= (2 * T.height t) + 2)

let test_seek_probe () =
  let t = mk (List.init 50 (fun i -> (3 * i, i))) in
  (* probe for first key >= 50 -> 51 *)
  let c = T.seek t (fun k -> Int.compare k 50) in
  Alcotest.(check (option (pair int int))) "first >= 50" (Some (51, 17)) (T.next c)

(* ---- model-based property tests ---- *)

module IntMap = Map.Make (Int)

type op = Insert of int * int | Delete of int | Find of int

let gen_ops =
  let open QCheck.Gen in
  let key = int_range 0 120 in
  let op =
    frequency
      [ (5, map2 (fun k v -> Insert (k, v)) key (int_range 0 1000));
        (2, map (fun k -> Delete k) key);
        (2, map (fun k -> Find k) key) ]
  in
  list_size (int_range 1 400) op

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Insert (k, v) -> Printf.sprintf "I(%d,%d)" k v
         | Delete k -> Printf.sprintf "D%d" k
         | Find k -> Printf.sprintf "F%d" k)
       ops)

let prop_model =
  QCheck.Test.make ~name:"btree agrees with Map under random ops" ~count:150
    (QCheck.make ~print:print_ops gen_ops) (fun ops ->
      let t = T.create ~order:4 () in
      let model = ref IntMap.empty in
      List.for_all
        (fun op ->
          (match op with
          | Insert (k, v) ->
              T.insert t k v;
              model := IntMap.add k v !model
          | Delete k ->
              let removed = T.delete t k in
              let expected = IntMap.mem k !model in
              model := IntMap.remove k !model;
              if removed <> expected then failwith "delete result mismatch"
          | Find _ -> ());
          match op with
          | Find k -> T.find t k = IntMap.find_opt k !model
          | _ -> true)
        ops
      &&
      (T.check_invariants t;
       T.to_list t = IntMap.bindings !model
       && T.length t = IntMap.cardinal !model))

let prop_rank_model =
  QCheck.Test.make ~name:"rank/count agree with model" ~count:100
    (QCheck.make ~print:print_ops gen_ops) (fun ops ->
      let t = T.create ~order:4 () in
      let model = ref IntMap.empty in
      List.iter
        (function
          | Insert (k, v) ->
              T.insert t k v;
              model := IntMap.add k v !model
          | Delete k ->
              ignore (T.delete t k);
              model := IntMap.remove k !model
          | Find _ -> ())
        ops;
      List.for_all
        (fun b ->
          let expected = IntMap.cardinal (IntMap.filter (fun k _ -> k < b) !model) in
          T.rank t (fun k -> Int.compare k b) = expected)
        [ 0; 1; 17; 60; 121; 1000 ])

let prop_cursor_model =
  QCheck.Test.make ~name:"cursor forward+backward scan matches model" ~count:100
    (QCheck.make ~print:print_ops gen_ops) (fun ops ->
      let t = T.create ~order:4 () in
      let model = ref IntMap.empty in
      List.iter
        (function
          | Insert (k, v) ->
              T.insert t k v;
              model := IntMap.add k v !model
          | Delete k ->
              ignore (T.delete t k);
              model := IntMap.remove k !model
          | Find _ -> ())
        ops;
      let forward = T.to_list t in
      let backward =
        let c = T.seek_max t in
        let rec go acc = match T.prev c with Some e -> go (e :: acc) | None -> acc in
        go []
      in
      forward = IntMap.bindings !model && backward = forward)

(* ---- leaf-pinned cursors ---- *)

type cop = Seek of int | Step | Step_back | Next | Prev | Peek

let print_cops (n, holes, ops) =
  Printf.sprintf "n=%d holes=%s ops=%s" n
    (String.concat "," (List.map (fun (lo, len) -> Printf.sprintf "%d+%d" lo len) holes))
    (String.concat ";"
       (List.map
          (function
            | Seek b -> Printf.sprintf "S%d" b
            | Step -> "s"
            | Step_back -> "b"
            | Next -> "n"
            | Prev -> "p"
            | Peek -> "k")
          ops))

(* keys 0..n-1 at order 4, minus deleted runs: a run longer than a leaf
   leaves empty leaves in the chain *)
let gen_cursor_case =
  let open QCheck.Gen in
  let* n = int_range 0 150 in
  let* holes = list_size (int_range 0 4) (pair (int_range 0 150) (int_range 1 30)) in
  let op =
    frequency
      [ (1, map (fun b -> Seek b) (int_range (-2) 152));
        (4, return Step);
        (3, return Step_back);
        (2, return Next);
        (2, return Prev);
        (1, return Peek) ]
  in
  let* ops = list_size (int_range 1 200) op in
  return (n, holes, Seek 0 :: ops)

let prop_cursor_steps =
  QCheck.Test.make ~name:"step/step_back/next/prev/peek agree with a sorted list" ~count:300
    (QCheck.make ~print:print_cops gen_cursor_case) (fun (n, holes, ops) ->
      let t = mk (List.init n (fun i -> (i, 10 * i))) in
      List.iter
        (fun (lo, len) ->
          for k = lo to lo + len - 1 do
            ignore (T.delete t k)
          done)
        holes;
      let model = Array.of_list (List.map fst (T.to_list t)) in
      let len = Array.length model in
      let c = ref (T.seek_min t) and pos = ref 0 and cur = ref None in
      let entry i = Some (model.(i), 10 * model.(i)) in
      (* after a step, [key]/[value] name the entry passed over *)
      let current_ok () =
        match !cur with
        | Some i -> T.key !c = model.(i) && T.value !c = 10 * model.(i)
        | None -> (
            match T.key !c with _ -> false | exception Invalid_argument _ -> true)
      in
      let forward () =
        if !pos < len then begin
          cur := Some !pos;
          incr pos
        end
        else cur := None;
        !cur
      in
      let backward () =
        if !pos > 0 then begin
          decr pos;
          cur := Some !pos
        end
        else cur := None;
        !cur
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Seek b ->
                c := T.seek t (fun k -> Int.compare k b);
                pos := 0;
                while !pos < len && model.(!pos) < b do
                  incr pos
                done;
                cur := None;
                true
            | Step -> T.step !c = (forward () <> None)
            | Step_back -> T.step_back !c = (backward () <> None)
            | Next -> T.next !c = Option.bind (forward ()) entry
            | Prev -> T.prev !c = Option.bind (backward ()) entry
            | Peek -> T.peek !c = if !pos < len then entry !pos else None
          in
          ok && current_ok ())
        ops)

let test_scan_reads_per_leaf () =
  (* a leaf-pinned scan reads the descent plus one page per leaf crossed,
     not one page per entry *)
  let n = 2000 in
  List.iter
    (fun order ->
      let t = mk ~order (List.init n (fun i -> (i * 7919 mod n, i))) in
      let s0 = (T.stats t).Storage.Stats.logical_reads in
      let c = T.seek_min t in
      let seen = ref 0 in
      while T.step c do
        incr seen
      done;
      let reads = (T.stats t).Storage.Stats.logical_reads - s0 in
      let half = (order + 1) / 2 in
      let bound = T.height t + ((n + half - 1) / half) in
      Alcotest.(check int) "scan saw every entry" n !seen;
      Alcotest.(check bool)
        (Printf.sprintf "order %d: scan read %d pages (<= %d)" order reads bound)
        true (reads <= bound))
    [ 4; 5; 8; 64 ]

let test_step_allocates_nothing () =
  let t = mk (List.init 100 (fun i -> (i, i))) in
  let c = T.seek_min t in
  let before = Gc.minor_words () in
  let sum = ref 0 in
  while T.step c do
    sum := !sum + T.key c
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "scanned all" 4950 !sum;
  Alcotest.(check bool)
    (Printf.sprintf "a scan over %d pages allocated %.0f minor words"
       (T.page_count t) words)
    true (words <= 16.0)

let test_find_allocates_only_the_option () =
  let t = mk ~order:8 (List.init 1000 (fun i -> (i, i))) in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    ignore (T.find t (i mod 1000))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%d finds allocated %.0f minor words" calls words)
    true
    (words <= (2.0 *. float_of_int calls) +. 16.0)

(* ---- leaf fingers ---- *)

(* Even keys go in, so odd targets fall in the gaps inside and between
   leaves; even targets hit present keys, deleted keys and separators
   alike.  Run deletes empty whole leaves. *)
type fop =
  | F_insert of int * int
  | F_delete_run of int * int
  | F_find of int
  | F_seek of int
  | F_seek_key of int

let print_fops ops =
  String.concat ";"
    (List.map
       (function
         | F_insert (k, v) -> Printf.sprintf "I(%d,%d)" k v
         | F_delete_run (lo, len) -> Printf.sprintf "D%d+%d" lo len
         | F_find k -> Printf.sprintf "F%d" k
         | F_seek b -> Printf.sprintf "S%d" b
         | F_seek_key k -> Printf.sprintf "K%d" k)
       ops)

let gen_fops =
  let open QCheck.Gen in
  let key = map (fun i -> 2 * i) (int_range 0 80) in
  let target = int_range (-1) 161 in
  let op =
    frequency
      [ (4, map2 (fun k v -> F_insert (k, v)) key (int_range 0 1000));
        (1, map2 (fun lo len -> F_delete_run (lo, len)) key (int_range 1 12));
        (3, map (fun k -> F_find k) target);
        (3, map (fun b -> F_seek b) target);
        (2, map (fun k -> F_seek_key k) target) ]
  in
  list_size (int_range 1 300) op

(* the cursor sits just before the first model key >= [b]: one [step]
   passes that key, and [step_back] twice returns over it to the one
   before *)
let cursor_at c model b =
  let succ = IntMap.find_first_opt (fun k -> k >= b) model in
  let pred = IntMap.find_last_opt (fun k -> k < b) model in
  let passed = function
    | Some (k, v) -> T.key c = k && T.value c = v
    | None -> true
  in
  let fwd = T.step c in
  fwd = (succ <> None)
  && passed succ
  && ((not fwd) || (T.step_back c && passed succ))
  &&
  let back = T.step_back c in
  back = (pred <> None) && passed pred

let prop_fingers =
  QCheck.Test.make ~name:"finger lookups agree with a sorted list" ~count:300
    (QCheck.make ~print:print_fops gen_fops) (fun ops ->
      let t = T.create ~order:4 () in
      let model = ref IntMap.empty in
      List.for_all
        (function
          | F_insert (k, v) ->
              T.insert t k v;
              model := IntMap.add k v !model;
              true
          | F_delete_run (lo, len) ->
              for i = 0 to len - 1 do
                let k = lo + (2 * i) in
                if T.delete t k <> IntMap.mem k !model then failwith "delete result mismatch";
                model := IntMap.remove k !model
              done;
              true
          | F_find k -> T.find t k = IntMap.find_opt k !model
          | F_seek b -> cursor_at (T.seek t (fun k -> Int.compare k b)) !model b
          | F_seek_key k -> cursor_at (T.seek_key t k) !model k)
        ops
      && (T.check_invariants t;
          T.to_list t = IntMap.bindings !model))

let logical_reads t = (T.stats t).Storage.Stats.logical_reads

let reads t f =
  let r0 = logical_reads t in
  f ();
  logical_reads t - r0

let test_finger_reads () =
  let t = mk (List.init 200 (fun i -> (2 * i, i))) in
  let h = T.height t in
  Alcotest.(check bool) "tree has inner levels" true (h > 2);
  (* 101 lies strictly between two keys, so a find and a probe seek take
     the same path and share a finger *)
  let find () = ignore (T.find t 101) in
  let seek () = ignore (T.seek t (fun k -> Int.compare k 101)) in
  Alcotest.(check int) "first find descends" h (reads t find);
  Alcotest.(check int) "second find reads its leaf" 1 (reads t find);
  Alcotest.(check int) "seek into that leaf reads it" 1 (reads t seek);
  Alcotest.(check int) "seek_key into that leaf reads it" 1
    (reads t (fun () -> ignore (T.seek_key t 101)));
  T.insert t 301 0;
  let h = T.height t in
  Alcotest.(check int) "first find after insert descends" h (reads t find);
  Alcotest.(check int) "then reads its leaf" 1 (reads t find);
  ignore (T.delete t 301);
  Alcotest.(check int) "first seek after delete descends" h (reads t seek);
  Alcotest.(check int) "then reads its leaf" 1 (reads t seek)

let test_seek_allocates_only_its_cursor () =
  let t = mk ~order:8 (List.init 1000 (fun i -> (i, i))) in
  let h = T.height t in
  let probes = Array.init 8 (fun j -> fun k -> Int.compare k ((125 * j) + 3)) in
  let calls = 10_000 in
  let run pick =
    let r0 = logical_reads t and before = Gc.minor_words () in
    for i = 1 to calls do
      ignore (T.seek t (pick i))
    done;
    (Gc.minor_words () -. before, logical_reads t - r0)
  in
  let check what (words, reads) reads_per_seek =
    Alcotest.(check int) (what ^ ": reads") (reads_per_seek * calls) reads;
    (* a cursor is a four-field record: five words with its header *)
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d seeks allocated %.0f minor words" what calls words)
      true
      (words <= (5.0 *. float_of_int calls) +. 16.0)
  in
  (* eight leaves in turn overrun the ring of fingers: every seek descends *)
  check "miss" (run (fun i -> probes.(i mod 8))) h;
  ignore (T.seek t probes.(0));
  check "hit" (run (fun _ -> probes.(0))) 1

let suite =
  ( "btree",
    [ Alcotest.test_case "empty tree" `Quick test_empty;
      Alcotest.test_case "insert and find" `Quick test_insert_find;
      Alcotest.test_case "upsert" `Quick test_upsert;
      Alcotest.test_case "delete" `Quick test_delete;
      Alcotest.test_case "ordered iteration" `Quick test_ordered_iteration;
      Alcotest.test_case "cursor bidirectional" `Quick test_cursor_bidirectional;
      Alcotest.test_case "peek" `Quick test_peek;
      Alcotest.test_case "rank and count" `Quick test_rank_count;
      Alcotest.test_case "count is index-only" `Quick test_count_without_data_reads;
      Alcotest.test_case "seek by probe" `Quick test_seek_probe;
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_rank_model;
      Alcotest.test_case "scan reads one page per leaf" `Quick test_scan_reads_per_leaf;
      Alcotest.test_case "step allocates nothing" `Quick test_step_allocates_nothing;
      Alcotest.test_case "find allocates only the option" `Quick
        test_find_allocates_only_the_option;
      QCheck_alcotest.to_alcotest prop_cursor_model;
      QCheck_alcotest.to_alcotest prop_cursor_steps;
      QCheck_alcotest.to_alcotest prop_fingers;
      Alcotest.test_case "a finger hit reads one page" `Quick test_finger_reads;
      Alcotest.test_case "seek allocates only its cursor" `Quick
        test_seek_allocates_only_its_cursor ] )
