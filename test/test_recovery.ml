(* Crash-recovery matrix for the file-backed MASS store: clean shutdown,
   kill-before-fsync, torn WAL tails, kill-mid-checkpoint (both orders),
   checksum corruption, and mem-vs-file differential behaviour. *)

module Store = Mass.Store

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vamana_recovery_%d_%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let d = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd len;
  Unix.close fd

let wal_path d = Filename.concat d "store.wal"
let data_path d = Filename.concat d "store.data"
let manifest_path d = Filename.concat d "store.manifest"

let tiny_doc = "<r><x a='1'>t</x><y>u</y><!--c--><?p d?></r>"

(* The differential corpus: every major axis and predicate shape. *)
let corpus =
  [ "/site/people/person";
    "//person/address";
    "//person[address]/name";
    "//province[text()='Vermont']/ancestor::person";
    "//watches/watch/ancestor::person";
    "//item//keyword";
    "//person/@id";
    "/site/*/item";
    "//address/following-sibling::*";
    "//category/preceding-sibling::*" ]

let run_query store doc q =
  match Vamana.Engine.query_doc store doc q with
  | Ok r -> List.map Flex.to_string r.Vamana.Engine.keys
  | Error e -> Alcotest.fail (q ^ ": " ^ e)

let corpus_results store doc = List.map (fun q -> run_query store doc q) corpus

let check_corpus_equal msg expected store doc =
  List.iter2
    (fun q exp -> Alcotest.(check (list string)) (msg ^ ": " ^ q) exp (run_query store doc q))
    corpus expected

let build_file_store dir =
  let store = Store.create ~backend:(Store.File { dir }) () in
  let d1 = Xmark.load store ~name:"auction.xml" 0.3 in
  let d2 = Store.load_string store ~name:"tiny.xml" tiny_doc in
  (store, d1, d2)

(* ---- mem/file differential ---- *)

let test_mem_file_differential () =
  with_dir (fun dir ->
      let mem = Store.create () in
      let md = Xmark.load mem ~name:"auction.xml" 0.3 in
      let file, fd, _ = build_file_store dir in
      Alcotest.(check int) "records" (Store.total_records mem)
        (Store.total_records file - Store.subtree_size file
           (Option.get (Store.find_document file "tiny.xml")).Store.doc_key);
      check_corpus_equal "file matches mem" (corpus_results mem md) file fd;
      Store.close file)

(* ---- clean shutdown ---- *)

let test_clean_close_reopen () =
  with_dir (fun dir ->
      let store, d1, _ = build_file_store dir in
      let expected = corpus_results store d1 in
      let records = Store.total_records store in
      let ep = Store.epoch store in
      Store.close store;
      let store = Store.open_file ~dir () in
      Alcotest.(check (option reject)) "no recovery needed" None
        (Store.last_recovery store);
      Alcotest.(check int) "epoch" ep (Store.epoch store);
      Alcotest.(check int) "records" records (Store.total_records store);
      Alcotest.(check int) "documents" 2 (List.length (Store.documents store));
      Store.validate store;
      let d1 = Option.get (Store.find_document store "auction.xml") in
      check_corpus_equal "after reopen" expected store d1;
      Store.close store)

(* ---- crash immediately after create: metadata already durable ---- *)

let test_crash_right_after_create () =
  with_dir (fun dir ->
      let store = Store.create ~backend:(Store.File { dir }) () in
      Store.simulate_crash store;
      (* create checkpoints the (empty) metadata into the manifest, so the
         store is reopenable before any commit ever happened *)
      let store = Store.open_file ~dir () in
      Alcotest.(check int) "no documents" 0 (List.length (Store.documents store));
      Store.validate store;
      let d = Store.load_string store ~name:"tiny.xml" tiny_doc in
      Alcotest.(check bool) "recovered store loads" true
        (Store.get store d.Store.doc_key <> None);
      Store.close store;
      let store = Store.open_file ~dir () in
      Alcotest.(check int) "document survived" 1
        (List.length (Store.documents store));
      Store.close store)

let test_crash_mid_first_load () =
  with_dir (fun dir ->
      let store = Store.create ~backend:(Store.File { dir }) () in
      Store.simulate_crash store;
      (* Bulk-load writes bypass the WAL and only append data frames, so a
         SIGKILL mid-first-load leaves exactly this on disk: the
         post-create manifest, orphan appended frames, an empty WAL. *)
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (data_path dir)
      in
      output_string oc (String.make (8 * 4096) '\xab');
      close_out oc;
      let store = Store.open_file ~dir () in
      Alcotest.(check int) "pre-load state" 0
        (List.length (Store.documents store));
      Store.validate store;
      ignore (Store.load_string store ~name:"tiny.xml" tiny_doc);
      Store.close store;
      let store = Store.open_file ~dir () in
      Store.validate store;
      Alcotest.(check int) "load after recovery sticks" 1
        (List.length (Store.documents store));
      Store.close store)

(* ---- a failed bulk ingest rolls back, never lingers in bulk mode ---- *)

let test_failed_restore_rolls_back () =
  with_dir (fun dir ->
      with_dir (fun dir2 ->
          let snap = Filename.concat dir "all.snap" in
          let store, _, _ = build_file_store dir in
          Store.save_file store snap;
          Store.close store;
          let s = read_bytes snap in
          write_bytes snap (String.sub s 0 (String.length s * 2 / 3));
          (match Store.load_file ~backend:(Store.File { dir = dir2 }) snap with
          | _ -> Alcotest.fail "truncated snapshot must not restore"
          | exception Store.Corrupt_snapshot _ -> ());
          (* the target directory holds a valid, reopenable empty store:
             the aborted ingest cannot have been committed *)
          let store2 = Store.open_file ~dir:dir2 () in
          Alcotest.(check int) "rolled back to empty" 0
            (List.length (Store.documents store2));
          Store.validate store2;
          Store.close store2))

(* ---- committed updates survive a crash ---- *)

let test_crash_after_commit () =
  with_dir (fun dir ->
      let store, _, d2 = build_file_store dir in
      let root = Option.get (Store.root_element_key d2 store) in
      let k =
        Store.insert_element store ~parent:root "extra" [ ("id", "e1") ] (Some "body")
      in
      let ep = Store.epoch store in
      (* autocommit is on: the insert is already durable; now crash *)
      Store.simulate_crash store;
      let store = Store.open_file ~dir () in
      Alcotest.(check int) "epoch" ep (Store.epoch store);
      (match Store.get store k with
      | Some r -> Alcotest.(check string) "name" "extra" r.Mass.Record.name
      | None -> Alcotest.fail "committed insert lost");
      Store.validate store;
      Store.close store)

(* ---- kill before fsync: uncommitted tail is lost, not corrupting ---- *)

let test_crash_before_commit () =
  with_dir (fun dir ->
      let store, _, d2 = build_file_store dir in
      let records = Store.total_records store in
      let ep = Store.epoch store in
      let root = Option.get (Store.root_element_key d2 store) in
      Store.set_autocommit store false;
      let k = Store.insert_element store ~parent:root "volatile" [] (Some "gone") in
      ignore (Store.insert_element store ~parent:root "volatile2" [] None);
      Store.simulate_crash store;
      let store = Store.open_file ~dir () in
      Alcotest.(check int) "epoch rolled back" ep (Store.epoch store);
      Alcotest.(check int) "records rolled back" records (Store.total_records store);
      Alcotest.(check bool) "uncommitted insert gone" true (Store.get store k = None);
      Store.validate store;
      Store.close store)

(* ---- torn WAL tails at randomized offsets ---- *)

let test_torn_wal_randomized () =
  with_dir (fun dir ->
      let store, _, d2 = build_file_store dir in
      let base_records = Store.total_records store in
      let base_epoch = Store.epoch store in
      let root = Option.get (Store.root_element_key d2 store) in
      (* several committed mutations so the WAL holds several batches *)
      for i = 1 to 5 do
        ignore
          (Store.insert_element store ~parent:root
             (Printf.sprintf "upd%d" i)
             [ ("n", string_of_int i) ]
             (Some (Printf.sprintf "text%d" i)))
      done;
      let full_epoch = Store.epoch store in
      Store.simulate_crash store;
      let wal = read_bytes (wal_path dir) in
      let data = read_bytes (data_path dir) in
      let manifest = read_bytes (manifest_path dir) in
      Alcotest.(check bool) "wal has batches" true (String.length wal > 0);
      let restore () =
        write_bytes (wal_path dir) wal;
        write_bytes (data_path dir) data;
        write_bytes (manifest_path dir) manifest
      in
      let rng = Random.State.make [| 0xbeef |] in
      let cuts =
        List.init 25 (fun _ -> Random.State.int rng (String.length wal + 1))
      in
      List.iter
        (fun cut ->
          restore ();
          truncate_file (wal_path dir) cut;
          let store = Store.open_file ~dir () in
          let e = Store.epoch store in
          Alcotest.(check bool)
            (Printf.sprintf "cut=%d epoch in range" cut)
            true
            (e >= base_epoch && e <= full_epoch);
          (* every recovered state is internally consistent *)
          Store.validate store;
          Alcotest.(check bool)
            (Printf.sprintf "cut=%d records monotone" cut)
            true
            (Store.total_records store >= base_records);
          (* the recovered prefix is exactly the first (e - base_epoch)
             inserts: one element + one attribute + one text each *)
          Alcotest.(check int)
            (Printf.sprintf "cut=%d records match epoch" cut)
            (base_records + (3 * (e - base_epoch)))
            (Store.total_records store);
          Store.close store)
        cuts)

(* ---- kill mid-checkpoint ---- *)

let test_stale_manifest_tmp_ignored () =
  with_dir (fun dir ->
      let store, d1, _ = build_file_store dir in
      let expected = corpus_results store d1 in
      Store.close store;
      (* a checkpoint that died before rename leaves a half-written tmp *)
      write_bytes (manifest_path dir ^ ".tmp") "VAMMANIFgarbage-half-written";
      let store = Store.open_file ~dir () in
      Store.validate store;
      let d1 = Option.get (Store.find_document store "auction.xml") in
      check_corpus_equal "tmp ignored" expected store d1;
      Alcotest.(check bool) "tmp removed" false
        (Sys.file_exists (manifest_path dir ^ ".tmp"));
      Store.close store)

let test_manifest_renamed_wal_not_truncated () =
  (* The other half of a torn checkpoint: the new manifest is installed but
     the crash hit before the WAL was truncated.  Replay must skip batches
     at or below the manifest epoch (idempotence). *)
  with_dir (fun dir ->
      let store, _, d2 = build_file_store dir in
      let root = Option.get (Store.root_element_key d2 store) in
      let k = Store.insert_element store ~parent:root "committed" [] (Some "v") in
      let wal_before = read_bytes (wal_path dir) in
      Alcotest.(check bool) "wal nonempty" true (String.length wal_before > 0);
      let records = Store.total_records store in
      let ep = Store.epoch store in
      Store.checkpoint store;
      Store.simulate_crash store;
      (* resurrect the pre-checkpoint WAL beside the new manifest *)
      write_bytes (wal_path dir) wal_before;
      let store = Store.open_file ~dir () in
      Alcotest.(check int) "epoch" ep (Store.epoch store);
      Alcotest.(check int) "records" records (Store.total_records store);
      Alcotest.(check bool) "insert present" true (Store.get store k <> None);
      Store.validate store;
      Store.close store)

(* ---- checksum corruption fails loudly ---- *)

let test_corrupt_page_detected () =
  with_dir (fun dir ->
      let store, _, _ = build_file_store dir in
      Store.close store;
      (* flip one byte in every frame's payload region: whichever pages a
         scan touches, the CRC must catch the damage *)
      let data = Bytes.of_string (read_bytes (data_path dir)) in
      let frame = 4096 in
      let nframes = Bytes.length data / frame in
      for i = 0 to nframes - 1 do
        let off = (i * frame) + 30 in
        if off < Bytes.length data then
          Bytes.set data off (Char.chr (Char.code (Bytes.get data off) lxor 0xff))
      done;
      write_bytes (data_path dir) (Bytes.to_string data);
      let store = Store.open_file ~dir () in
      (match Store.validate store with
      | () -> Alcotest.fail "corrupted pages must not validate"
      | exception Storage.Disk.Corrupt _ -> ());
      Store.close store)

(* ---- a malformed key in the metadata is corruption, not a crash ---- *)

let test_malformed_metadata_key () =
  with_dir (fun dir ->
      let store = Store.create ~backend:(Store.File { dir }) () in
      ignore (Store.load_string store ~name:"tiny.xml" tiny_doc);
      Store.close store;
      (* rewrite the manifest's metadata with the document key's first
         byte, just after its u32 length, set to 'A' *)
      let disk = Storage.Disk.open_dir ~dir in
      let meta = Storage.Disk.metadata disk in
      let name = "tiny.xml" in
      let rec find i = if String.sub meta i (String.length name) = name then i else find (i + 1) in
      let bad = Bytes.of_string meta in
      Bytes.set bad (find 0 + String.length name + 4) 'A';
      Storage.Disk.set_metadata disk (Bytes.to_string bad);
      Storage.Disk.checkpoint disk ~epoch:(Storage.Disk.committed_epoch disk);
      Storage.Disk.close disk;
      let fds () =
        if Sys.file_exists "/proc/self/fd" then Array.length (Sys.readdir "/proc/self/fd") else 0
      in
      let before = fds () in
      (match Store.open_file ~dir () with
      | _ -> Alcotest.fail "a malformed metadata key must not open"
      | exception Storage.Disk.Corrupt msg ->
          Alcotest.(check bool) "message names the store" true (String.starts_with ~prefix:dir msg));
      (* a leak shows as growth: finalisers may close other descriptors *)
      Alcotest.(check bool) "disk handle closed" true (fds () <= before))

(* ---- snapshots to and from the file backend ---- *)

let test_snapshot_across_backends () =
  with_dir (fun dir ->
      with_dir (fun dir2 ->
          let snap = Filename.concat dir "all.snap" in
          let store, d1, _ = build_file_store dir in
          let expected = corpus_results store d1 in
          Store.save_file store snap;
          Store.close store;
          (* restore the snapshot into a fresh durable store *)
          let store2 = Store.load_file ~backend:(Store.File { dir = dir2 }) snap in
          let d1' = Option.get (Store.find_document store2 "auction.xml") in
          check_corpus_equal "restored to file backend" expected store2 d1';
          Store.close store2;
          (* and the restored store is itself durable *)
          let store3 = Store.open_file ~dir:dir2 () in
          Store.validate store3;
          let d1'' = Option.get (Store.find_document store3 "auction.xml") in
          check_corpus_equal "reopened restore" expected store3 d1'';
          Store.close store3))

(* ---- file backend makes eviction I/O real ---- *)

let test_constrained_pool_does_file_io () =
  with_dir (fun dir ->
      let store =
        Store.create ~pool_pages:8 ~backend:(Store.File { dir }) ()
      in
      let doc = Xmark.load store ~name:"auction.xml" 0.3 in
      Store.reset_io_stats store;
      let before =
        match Store.disk_io store with
        | Some io -> io.Storage.Disk.data_reads
        | None -> Alcotest.fail "expected a disk"
      in
      ignore (run_query store doc "//person/address");
      let stats = Store.io_stats store in
      Alcotest.(check bool) "physical reads" true
        (stats.Storage.Stats.physical_reads > 0);
      let after =
        match Store.disk_io store with
        | Some io -> io.Storage.Disk.data_reads
        | None -> assert false
      in
      Alcotest.(check bool) "file reads happened" true (after > before);
      (* and the write-back counter observed the load's page traffic *)
      let d2 = Store.load_string store ~name:"tiny.xml" tiny_doc in
      ignore d2;
      let stats = Store.io_stats store in
      Alcotest.(check bool) "write-back bytes counted" true
        (stats.Storage.Stats.write_back_bytes > 0);
      Store.close store)

let suite =
  ( "recovery",
    [
      Alcotest.test_case "mem/file differential" `Quick test_mem_file_differential;
      Alcotest.test_case "clean close reopen" `Quick test_clean_close_reopen;
      Alcotest.test_case "crash right after create" `Quick
        test_crash_right_after_create;
      Alcotest.test_case "crash mid first load" `Quick test_crash_mid_first_load;
      Alcotest.test_case "failed restore rolls back" `Quick
        test_failed_restore_rolls_back;
      Alcotest.test_case "crash after commit" `Quick test_crash_after_commit;
      Alcotest.test_case "crash before commit" `Quick test_crash_before_commit;
      Alcotest.test_case "torn wal randomized" `Quick test_torn_wal_randomized;
      Alcotest.test_case "stale manifest tmp" `Quick test_stale_manifest_tmp_ignored;
      Alcotest.test_case "manifest renamed, wal kept" `Quick
        test_manifest_renamed_wal_not_truncated;
      Alcotest.test_case "corrupt page detected" `Quick test_corrupt_page_detected;
      Alcotest.test_case "malformed metadata key" `Quick test_malformed_metadata_key;
      Alcotest.test_case "snapshot across backends" `Quick
        test_snapshot_across_backends;
      Alcotest.test_case "constrained pool file io" `Quick
        test_constrained_pool_does_file_io;
    ] )
