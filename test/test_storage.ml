(* Tests for the paged buffer-pool storage. *)

open Storage

let test_alloc_read () =
  let p = Pager.create ~pool_pages:4 () in
  let a = Pager.alloc p "a" and b = Pager.alloc p "b" in
  Alcotest.(check string) "read a" "a" (Pager.read p a);
  Alcotest.(check string) "read b" "b" (Pager.read p b);
  Alcotest.(check int) "page count" 2 (Pager.page_count p);
  Alcotest.(check int) "allocations" 2 (Pager.stats p).Stats.allocations;
  Alcotest.(check int) "no physical reads while resident" 0
    (Pager.stats p).Stats.physical_reads

let test_write_and_free () =
  let p = Pager.create () in
  let a = Pager.alloc p 1 in
  Pager.write p a 42;
  Alcotest.(check int) "updated payload" 42 (Pager.read p a);
  Pager.free p a;
  Alcotest.(check int) "freed" 0 (Pager.page_count p);
  Alcotest.check_raises "read after free" (Invalid_argument "Pager: unknown page 0")
    (fun () -> ignore (Pager.read p a))

let test_eviction_counts () =
  let p = Pager.create ~pool_pages:2 () in
  let ids = List.init 3 (fun i -> Pager.alloc p i) in
  (* allocating 3 pages with pool 2 must have evicted one *)
  Alcotest.(check int) "resident bounded" 2 (Pager.resident_count p);
  Alcotest.(check int) "one eviction" 1 (Pager.stats p).Stats.evictions;
  (* dirty page written on eviction *)
  Alcotest.(check int) "dirty writeback" 1 (Pager.stats p).Stats.page_writes;
  (* touching the evicted page is a physical read *)
  let before = (Pager.stats p).Stats.physical_reads in
  ignore (Pager.read p (List.nth ids 0));
  Alcotest.(check int) "miss on evicted page" (before + 1) (Pager.stats p).Stats.physical_reads

let test_lru_order () =
  let p = Pager.create ~pool_pages:2 () in
  let a = Pager.alloc p "a" and b = Pager.alloc p "b" in
  ignore (Pager.read p a);
  (* a is now most recent; allocating c evicts b *)
  let _c = Pager.alloc p "c" in
  let misses_before = (Pager.stats p).Stats.physical_reads in
  ignore (Pager.read p a);
  Alcotest.(check int) "a still resident" misses_before (Pager.stats p).Stats.physical_reads;
  ignore (Pager.read p b);
  Alcotest.(check int) "b was evicted" (misses_before + 1) (Pager.stats p).Stats.physical_reads

let test_hit_ratio () =
  let p = Pager.create ~pool_pages:8 () in
  let a = Pager.alloc p 0 in
  for _ = 1 to 9 do
    ignore (Pager.read p a)
  done;
  let s = Pager.stats p in
  Alcotest.(check int) "logical reads" 9 s.Stats.logical_reads;
  Alcotest.(check (float 1e-9)) "hit ratio 1.0" 1.0 (Stats.hit_ratio s)

let test_flush () =
  let p = Pager.create ~pool_pages:8 () in
  let a = Pager.alloc p 0 in
  Pager.write p a 1;
  Pager.flush p;
  let w = (Pager.stats p).Stats.page_writes in
  Alcotest.(check bool) "flush wrote dirty page" true (w >= 1);
  Pager.flush p;
  Alcotest.(check int) "second flush writes nothing" w (Pager.stats p).Stats.page_writes

let test_stats_diff () =
  let p = Pager.create ~pool_pages:1 () in
  let a = Pager.alloc p 0 and b = Pager.alloc p 1 in
  let snap = Stats.copy (Pager.stats p) in
  ignore (Pager.read p a);
  ignore (Pager.read p b);
  let d = Stats.diff (Pager.stats p) snap in
  Alcotest.(check int) "delta logical" 2 d.Stats.logical_reads;
  Alcotest.(check bool) "delta physical positive" true (d.Stats.physical_reads >= 1)

let test_stats_edges () =
  (* zero reads: the ratio is defined as 1.0, not 0/0 *)
  let s = Stats.create () in
  Alcotest.(check (float 1e-9)) "no reads" 1.0 (Stats.hit_ratio s);
  s.Stats.logical_reads <- 10;
  s.Stats.physical_reads <- 4;
  Alcotest.(check (float 1e-9)) "6 of 10 hit" 0.6 (Stats.hit_ratio s);
  (* reset returns to the zero-read state *)
  Stats.reset s;
  Alcotest.(check int) "reset clears logical" 0 s.Stats.logical_reads;
  Alcotest.(check (float 1e-9)) "post-reset ratio" 1.0 (Stats.hit_ratio s);
  (* a copy is a snapshot: mutating the source must not leak through *)
  s.Stats.logical_reads <- 5;
  let snap = Stats.copy s in
  s.Stats.logical_reads <- 9;
  Alcotest.(check int) "copy frozen" 5 snap.Stats.logical_reads;
  Alcotest.(check int) "diff vs snapshot" 4 (Stats.diff s snap).Stats.logical_reads;
  (* identical snapshots diff to all-zero, whose ratio is again 1.0 *)
  let z = Stats.diff snap (Stats.copy snap) in
  Alcotest.(check int) "zero diff" 0 z.Stats.logical_reads;
  Alcotest.(check (float 1e-9)) "zero-diff ratio" 1.0 (Stats.hit_ratio z)

let test_stats_writeback_fields () =
  (* the durable-backend counters ride through reset/copy/diff like the
     page counters do *)
  let s = Stats.create () in
  Alcotest.(check int) "fresh wb_bytes" 0 s.Stats.write_back_bytes;
  Alcotest.(check int) "fresh fsyncs" 0 s.Stats.fsyncs;
  s.Stats.write_back_bytes <- 4096;
  s.Stats.fsyncs <- 3;
  let snap = Stats.copy s in
  s.Stats.write_back_bytes <- 10240;
  s.Stats.fsyncs <- 5;
  Alcotest.(check int) "copy frozen wb" 4096 snap.Stats.write_back_bytes;
  let d = Stats.diff s snap in
  Alcotest.(check int) "diff wb_bytes" 6144 d.Stats.write_back_bytes;
  Alcotest.(check int) "diff fsyncs" 2 d.Stats.fsyncs;
  Stats.reset s;
  Alcotest.(check int) "reset wb_bytes" 0 s.Stats.write_back_bytes;
  Alcotest.(check int) "reset fsyncs" 0 s.Stats.fsyncs

let test_histogram_interpolation () =
  let open Stats in
  (* 100 observations spread evenly across one bucket (2.5ms, 5ms]:
     interpolation must spread percentiles through the bucket instead of
     snapping every one to the 5ms upper bound *)
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.observe h (0.0025 +. (0.0025 *. float_of_int i /. 100.))
  done;
  let p25 = Histogram.percentile h 25.0 and p75 = Histogram.percentile h 75.0 in
  Alcotest.(check bool) "p25 < p75" true (p25 < p75);
  Alcotest.(check bool) "p25 in lower half" true (p25 < 0.00375);
  Alcotest.(check bool) "p75 in upper half" true (p75 > 0.00375);
  (* clamped to the observed extremes *)
  Alcotest.(check (float 1e-12)) "p100 = max" (Histogram.max_value h)
    (Histogram.percentile h 100.0);
  Alcotest.(check bool) "p1 >= min" true (Histogram.percentile h 1.0 >= Histogram.min_value h);
  (* a singleton reports itself at every percentile *)
  let one = Histogram.create () in
  Histogram.observe one 0.003;
  Alcotest.(check (float 1e-12)) "singleton p50" 0.003 (Histogram.percentile one 50.0);
  Alcotest.(check (float 1e-12)) "singleton p99" 0.003 (Histogram.percentile one 99.0);
  Alcotest.(check (float 1e-12)) "empty" 0.0 (Histogram.percentile (Histogram.create ()) 50.0)

let test_histogram_merge () =
  let open Stats in
  (* merging an empty side is a no-op *)
  let a = Histogram.create () in
  Histogram.observe a 0.001;
  Histogram.observe a 0.004;
  Histogram.merge ~into:a (Histogram.create ());
  Alcotest.(check int) "count unchanged" 2 (Histogram.count a);
  Alcotest.(check (float 1e-12)) "sum unchanged" 0.005 (Histogram.sum a);
  Alcotest.(check (float 1e-12)) "min unchanged" 0.001 (Histogram.min_value a);
  (* merging into an empty histogram copies counts and extremes *)
  let b = Histogram.create () in
  Histogram.merge ~into:b a;
  Alcotest.(check int) "copied count" 2 (Histogram.count b);
  Alcotest.(check (float 1e-12)) "copied min" 0.001 (Histogram.min_value b);
  Alcotest.(check (float 1e-12)) "copied max" 0.004 (Histogram.max_value b);
  (* disjoint ranges: totals add and the extremes span both sides *)
  let lo = Histogram.create () and hi = Histogram.create () in
  for _ = 1 to 10 do
    Histogram.observe lo 1e-5
  done;
  for _ = 1 to 10 do
    Histogram.observe hi 1.0
  done;
  Histogram.merge ~into:lo hi;
  Alcotest.(check int) "merged count" 20 (Histogram.count lo);
  Alcotest.(check (float 1e-12)) "min from low side" 1e-5 (Histogram.min_value lo);
  Alcotest.(check (float 1e-12)) "max from high side" 1.0 (Histogram.max_value lo);
  Alcotest.(check bool) "p25 on the low side" true (Histogram.percentile lo 25.0 < 1e-3);
  Alcotest.(check bool) "p75 on the high side" true (Histogram.percentile lo 75.0 > 0.1)

(* property: under any access pattern, resident pages never exceed pool
   size and hit ratio stays within [0,1] *)
let prop_pool_invariants =
  let gen =
    let open QCheck.Gen in
    let* pool = int_range 1 5 in
    let* npages = int_range 1 10 in
    let* ops = list_size (int_range 1 200) (int_range 0 (npages - 1)) in
    return (pool, npages, ops)
  in
  QCheck.Test.make ~name:"pool never exceeds capacity" ~count:200
    (QCheck.make ~print:(fun (p, n, ops) ->
         Printf.sprintf "pool=%d pages=%d ops=%d" p n (List.length ops))
       gen)
    (fun (pool, npages, ops) ->
      let p = Pager.create ~pool_pages:pool () in
      let ids = Array.init npages (fun i -> Pager.alloc p i) in
      List.iter (fun i -> ignore (Pager.read p ids.(i))) ops;
      let s = Pager.stats p in
      Pager.resident_count p <= pool
      && Stats.hit_ratio s >= 0.0
      && Stats.hit_ratio s <= 1.0
      && List.for_all (fun i -> Pager.read p ids.(i) = i) (List.init npages Fun.id))

(* regression: freeing a dirty resident page must count the pending
   write, matching the accounting evict_one applies *)
let test_free_dirty_counts_write () =
  let p = Pager.create ~pool_pages:4 () in
  let a = Pager.alloc p 1 in
  Pager.flush p;
  let clean_writes = (Pager.stats p).Stats.page_writes in
  Pager.free p a;
  Alcotest.(check int) "freeing a clean page writes nothing" clean_writes
    (Pager.stats p).Stats.page_writes;
  let b = Pager.alloc p 2 in
  Pager.write p b 3;
  let before = (Pager.stats p).Stats.page_writes in
  Pager.free p b;
  Alcotest.(check int) "freeing a dirty page counts its pending write" (before + 1)
    (Pager.stats p).Stats.page_writes

(* free-vs-evict consistency: a dirty page costs exactly one write
   whether it leaves the pool by eviction or by free *)
let test_free_evict_write_parity () =
  let run leave =
    let p = Pager.create ~pool_pages:1 () in
    let a = Pager.alloc p 0 in
    Pager.write p a 1;
    leave p a;
    (Pager.stats p).Stats.page_writes
  in
  let via_evict = run (fun p _ -> ignore (Pager.alloc p 9)) in
  let via_free = run (fun p a -> Pager.free p a) in
  Alcotest.(check int) "same write count either way" via_evict via_free

(* ---- the array page table against the Hashtbl reference pager ---- *)

type pager_op = PAlloc of int | PRead of int | PWrite of int * int | PFree of int | PFlush

let print_pager_ops (pool, ops) =
  Printf.sprintf "pool %d: %s" pool
    (String.concat ";"
       (List.map
          (function
            | PAlloc v -> Printf.sprintf "A%d" v
            | PRead i -> Printf.sprintf "R%d" i
            | PWrite (i, v) -> Printf.sprintf "W(%d,%d)" i v
            | PFree i -> Printf.sprintf "F%d" i
            | PFlush -> "S")
          ops))

(* ids range over negative, live, freed and never-allocated pages *)
let gen_pager_ops =
  let open QCheck.Gen in
  let id = int_range (-2) 24 in
  pair (int_range 1 8)
    (list_size (int_range 1 300)
       (frequency
          [ (3, map (fun v -> PAlloc v) small_nat);
            (5, map (fun i -> PRead i) id);
            (2, map2 (fun i v -> PWrite (i, v)) id small_nat);
            (2, map (fun i -> PFree i) id);
            (1, return PFlush) ]))

let prop_pager_matches_reference =
  QCheck.Test.make ~name:"array page table matches the Hashtbl reference pager" ~count:300
    (QCheck.make ~print:print_pager_ops gen_pager_ops) (fun (pool, ops) ->
      let p = Pager.create ~pool_pages:pool () and r = Pager_ref.create ~pool_pages:pool () in
      let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      List.for_all
        (fun op ->
          let same =
            match op with
            | PAlloc v -> outcome (fun () -> Pager.alloc p v) = outcome (fun () -> Pager_ref.alloc r v)
            | PRead i -> outcome (fun () -> Pager.read p i) = outcome (fun () -> Pager_ref.read r i)
            | PWrite (i, v) ->
                outcome (fun () -> Pager.write p i v) = outcome (fun () -> Pager_ref.write r i v)
            | PFree i -> outcome (fun () -> Pager.free p i) = outcome (fun () -> Pager_ref.free r i)
            | PFlush ->
                Pager.flush p;
                Pager_ref.flush r;
                true
          in
          same
          && Pager.stats p = Pager_ref.stats r
          && Pager.resident_count p = Pager_ref.resident_count r
          && Pager.page_count p = Pager_ref.page_count r)
        ops)

let test_read_allocates_nothing () =
  let p = Pager.create ~pool_pages:8 () in
  let ids = Array.init 16 (fun i -> Pager.alloc p i) in
  (* hits and misses alike: the Mem backend only flips residency bits *)
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    ignore (Pager.read p ids.(i land 15))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k reads allocated %.0f minor words" words)
    true (words <= 16.0)

let suite =
  ( "storage",
    [ Alcotest.test_case "alloc and read" `Quick test_alloc_read;
      Alcotest.test_case "free dirty counts write" `Quick test_free_dirty_counts_write;
      Alcotest.test_case "free/evict write parity" `Quick test_free_evict_write_parity;
      Alcotest.test_case "write and free" `Quick test_write_and_free;
      Alcotest.test_case "eviction counting" `Quick test_eviction_counts;
      Alcotest.test_case "lru order" `Quick test_lru_order;
      Alcotest.test_case "hit ratio" `Quick test_hit_ratio;
      Alcotest.test_case "flush" `Quick test_flush;
      Alcotest.test_case "stats diff" `Quick test_stats_diff;
      Alcotest.test_case "stats edge cases" `Quick test_stats_edges;
      Alcotest.test_case "stats write-back fields" `Quick test_stats_writeback_fields;
      Alcotest.test_case "histogram percentile interpolation" `Quick
        test_histogram_interpolation;
      Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
      Alcotest.test_case "read allocates nothing" `Quick test_read_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_pool_invariants;
      QCheck_alcotest.to_alcotest prop_pager_matches_reference ] )
