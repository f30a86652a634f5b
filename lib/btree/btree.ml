module type KEY = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

let nil = -1

module Make (K : KEY) = struct
  type 'v leaf = { keys : K.t array; vals : 'v array; prev : int; next : int }
  type inner = { seps : K.t array; children : int array; counts : int array }
  type 'v node = Leaf of 'v leaf | Node of inner

  (* A finger remembers a leaf that a root descent reached: its page, the
     two separators that bound it on its root path (the last one left of
     the path and the first one right of it; absent at the tree's edges)
     and the tree version of the descent.  A lookup whose target lies
     within those bounds would descend to the same leaf, so it reads that
     one page instead.  Only page ids and keys are kept, never a leaf
     image, so page accounting and pool order stay exact. *)
  let fingers = 4

  type 'v t = {
    pager : 'v node Storage.Pager.t;
    mutable root : int;
    order : int;
    mutable version : int;  (* bumped by every insert and delete *)
    f_page : int array;
    f_version : int array;  (* -1 until recorded *)
    mutable f_lo : K.t array;  (* [||] until the first recorded descent *)
    mutable f_hi : K.t array;
    f_has_lo : bool array;
    f_has_hi : bool array;
    mutable f_next : int;  (* the ring slot the next descent overwrites *)
  }

  module P = Storage.Pager

  let node_codec ~enc_key ~dec_key ~enc_val ~dec_val =
    let open Storage.Binio in
    let encode node =
      let b = Buffer.create 256 in
      (match node with
      | Leaf l ->
          w_u8 b 0;
          w_u64 b l.prev;
          w_u64 b l.next;
          w_u32 b (Array.length l.keys);
          Array.iteri
            (fun i k ->
              enc_key b k;
              enc_val b l.vals.(i))
            l.keys
      | Node n ->
          w_u8 b 1;
          w_u32 b (Array.length n.seps);
          Array.iter (fun s -> enc_key b s) n.seps;
          w_u32 b (Array.length n.children);
          Array.iteri
            (fun i c ->
              w_u64 b c;
              w_u64 b n.counts.(i))
            n.children);
      Buffer.contents b
    in
    let decode s =
      let r = reader s in
      match r_u8 r with
      | 0 ->
          let prev = r_u64 r in
          let next = r_u64 r in
          let n = r_u32 r in
          let rec entries i acc =
            if i = n then List.rev acc
            else
              let k = dec_key r in
              let v = dec_val r in
              entries (i + 1) ((k, v) :: acc)
          in
          let kvs = entries 0 [] in
          Leaf
            {
              keys = Array.of_list (List.map fst kvs);
              vals = Array.of_list (List.map snd kvs);
              prev;
              next;
            }
      | 1 ->
          let nseps = r_u32 r in
          let rec seps i acc =
            if i = nseps then List.rev acc else seps (i + 1) (dec_key r :: acc)
          in
          let seps = Array.of_list (seps 0 []) in
          let nch = r_u32 r in
          let rec kids i acc =
            if i = nch then List.rev acc
            else
              let c = r_u64 r in
              let cnt = r_u64 r in
              kids (i + 1) ((c, cnt) :: acc)
          in
          let kids = kids 0 [] in
          Node
            {
              seps;
              children = Array.of_list (List.map fst kids);
              counts = Array.of_list (List.map snd kids);
            }
      | tag -> failwith (Printf.sprintf "Btree: bad node tag %d" tag)
    in
    { P.encode; P.decode }

  let make pager root order =
    { pager; root; order; version = 0;
      f_page = Array.make fingers nil; f_version = Array.make fingers (-1);
      f_lo = [||]; f_hi = [||];
      f_has_lo = Array.make fingers false; f_has_hi = Array.make fingers false;
      f_next = 0 }

  let create ?label ?(order = 64) ?pool_pages ?backend () =
    if order < 4 then invalid_arg "Btree.create: order < 4";
    let pager = P.create ?label ?pool_pages ?backend () in
    let root = P.alloc pager (Leaf { keys = [||]; vals = [||]; prev = nil; next = nil }) in
    make pager root order

  let open_existing ?label ?(order = 64) ?pool_pages ~backend ~root () =
    if order < 4 then invalid_arg "Btree.open_existing: order < 4";
    make (P.attach ?label ?pool_pages ~backend ()) root order

  let root_id t = t.root
  let flush t = P.flush t.pager

  (* ---- array helpers ---- *)

  let insert_at a i x =
    let n = Array.length a in
    let b = Array.make (n + 1) x in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    b

  let remove_at a i =
    let n = Array.length a in
    let b = Array.sub a 0 (n - 1) in
    Array.blit a (i + 1) b i (n - 1 - i);
    b

  let sum = Array.fold_left ( + ) 0

  (* first index i with [f a.(i) >= 0], or [length a] *)
  let lower_bound f a =
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if f a.(mid) >= 0 then hi := mid else lo := mid + 1
    done;
    !lo

  (* [lower_bound] specialised to a key, without a probe closure: the first
     index i in [lo, hi) with [K.compare a.(i) k >= bias].  Bias 0 finds
     [k]'s slot in a leaf; bias 1 finds the child an exact-key descent
     takes (keys equal to a separator live in the right subtree). *)
  let rec search a k bias lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if K.compare a.(mid) k >= bias then search a k bias lo mid
      else search a k bias (mid + 1) hi

  let key_index keys k = search keys k 0 0 (Array.length keys)
  let child_index seps k = search seps k 1 0 (Array.length seps)

  (* The same search for a target given in two parts: [cmp a b k] orders
     [k] against the target (negative before it, zero at it), so a caller
     passing a top-level [cmp] builds no key.  Kept apart from [search]:
     the indirect call cost a bulk load about 15% of its time. *)
  let rec search_by cmp a b arr bias lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if cmp a b arr.(mid) >= bias then search_by cmp a b arr bias lo mid
      else search_by cmp a b arr bias (mid + 1) hi

  let node_entry_count = function
    | Leaf l -> Array.length l.keys
    | Node n -> sum n.counts

  let length t = node_entry_count (P.read t.pager t.root)

  let height t =
    let rec go page acc =
      match P.read t.pager page with
      | Leaf _ -> acc
      | Node n -> go n.children.(0) (acc + 1)
    in
    go t.root 1

  let read_leaf t page =
    match P.read t.pager page with
    | Leaf l -> l
    | Node _ -> assert false

  (* ---- fingers ---- *)

  (* Descents carry their leaf's bounds as (key, present) pairs; an absent
     bound's key is any separator and is never compared. *)
  let record t page lo has_lo hi has_hi =
    if Array.length t.f_lo = 0 then begin
      t.f_lo <- Array.make fingers lo;
      t.f_hi <- Array.make fingers hi
    end;
    let i = t.f_next in
    t.f_next <- (i + 1) mod fingers;
    t.f_page.(i) <- page;
    t.f_version.(i) <- t.version;
    t.f_lo.(i) <- lo;
    t.f_has_lo.(i) <- has_lo;
    t.f_hi.(i) <- hi;
    t.f_has_hi.(i) <- has_hi

  (* The leaf a probe descent would reach, if a finger holds it, else [nil]:
     [lower_bound] routes past a separator [s] exactly when [f s < 0]. *)
  let rec probe_finger t f i =
    if i = fingers then nil
    else if
      t.f_version.(i) = t.version
      && ((not t.f_has_lo.(i)) || f t.f_lo.(i) < 0)
      && ((not t.f_has_hi.(i)) || f t.f_hi.(i) >= 0)
    then t.f_page.(i)
    else probe_finger t f (i + 1)

  (* The same for an exact-key descent, which routes by [child_index]. *)
  let rec key_finger t k i =
    if i = fingers then nil
    else if
      t.f_version.(i) = t.version
      && ((not t.f_has_lo.(i)) || K.compare t.f_lo.(i) k <= 0)
      && ((not t.f_has_hi.(i)) || K.compare k t.f_hi.(i) < 0)
    then t.f_page.(i)
    else key_finger t k (i + 1)

  (* ... and for one whose target comes in two parts, as [search_by] *)
  let rec key_finger_by t cmp a b i =
    if i = fingers then nil
    else if
      t.f_version.(i) = t.version
      && ((not t.f_has_lo.(i)) || cmp a b t.f_lo.(i) <= 0)
      && ((not t.f_has_hi.(i)) || cmp a b t.f_hi.(i) > 0)
    then t.f_page.(i)
    else key_finger_by t cmp a b (i + 1)

  (* ---- find ---- *)

  let find_leaf l k =
    let i = key_index l.keys k in
    if i < Array.length l.keys && K.compare l.keys.(i) k = 0 then Some l.vals.(i) else None

  (* descents are top-level recursions so that they allocate nothing *)
  let rec find_in t page k lo has_lo hi has_hi =
    match P.read t.pager page with
    | Leaf l ->
        record t page lo has_lo hi has_hi;
        find_leaf l k
    | Node n -> find_node t n k lo has_lo hi has_hi

  and find_node t n k lo has_lo hi has_hi =
    let i = child_index n.seps k in
    let m = Array.length n.seps in
    find_in t n.children.(i) k
      (if i > 0 then n.seps.(i - 1) else lo) (has_lo || i > 0)
      (if i < m then n.seps.(i) else hi) (has_hi || i < m)

  let find t k =
    let page = key_finger t k 0 in
    if page <> nil then find_leaf (read_leaf t page) k
    else
      match P.read t.pager t.root with
      | Leaf l -> find_leaf l k
      | Node n -> find_node t n k k false k false

  let mem t k = find t k <> None

  let find_warm t k =
    let page = key_finger t k 0 in
    if page = nil then None else find_leaf (read_leaf t page) k

  let mem_leaf cmp a b l =
    let i = search_by cmp a b l.keys 0 0 (Array.length l.keys) in
    i < Array.length l.keys && cmp a b l.keys.(i) = 0

  let rec mem_in t cmp a b page lo has_lo hi has_hi =
    match P.read t.pager page with
    | Leaf l ->
        record t page lo has_lo hi has_hi;
        mem_leaf cmp a b l
    | Node n -> mem_node t cmp a b n lo has_lo hi has_hi

  and mem_node t cmp a b n lo has_lo hi has_hi =
    let i = search_by cmp a b n.seps 1 0 (Array.length n.seps) in
    let m = Array.length n.seps in
    mem_in t cmp a b n.children.(i)
      (if i > 0 then n.seps.(i - 1) else lo) (has_lo || i > 0)
      (if i < m then n.seps.(i) else hi) (has_hi || i < m)

  let mem_by t cmp a b =
    let page = key_finger_by t cmp a b 0 in
    if page <> nil then mem_leaf cmp a b (read_leaf t page)
    else
      match P.read t.pager t.root with
      | Leaf l -> mem_leaf cmp a b l
      | Node n ->
          let s = n.seps.(0) in
          mem_node t cmp a b n s false s false

  (* ---- insert ---- *)

  type 'v split = { sep : K.t; right : int; right_count : int }

  let rec ins t page k v : bool * 'v split option =
    match P.read t.pager page with
    | Leaf l ->
        let i = key_index l.keys k in
        if i < Array.length l.keys && K.compare l.keys.(i) k = 0 then begin
          let vals = Array.copy l.vals in
          vals.(i) <- v;
          P.write t.pager page (Leaf { l with vals });
          (false, None)
        end
        else begin
          let keys = insert_at l.keys i k and vals = insert_at l.vals i v in
          let len = Array.length keys in
          if len <= t.order then begin
            P.write t.pager page (Leaf { l with keys; vals });
            (true, None)
          end
          else begin
            let mid = len / 2 in
            let rkeys = Array.sub keys mid (len - mid)
            and rvals = Array.sub vals mid (len - mid) in
            let right =
              P.alloc t.pager (Leaf { keys = rkeys; vals = rvals; prev = page; next = l.next })
            in
            (* fix the back link of the old successor *)
            (if l.next <> nil then
               match P.read t.pager l.next with
               | Leaf nl -> P.write t.pager l.next (Leaf { nl with prev = right })
               | Node _ -> assert false);
            P.write t.pager page
              (Leaf { keys = Array.sub keys 0 mid; vals = Array.sub vals 0 mid;
                      prev = l.prev; next = right });
            (true, Some { sep = rkeys.(0); right; right_count = Array.length rkeys })
          end
        end
    | Node n ->
        let i = child_index n.seps k in
        let added, sp = ins t n.children.(i) k v in
        let delta = if added then 1 else 0 in
        let seps, children, counts =
          match sp with
          | None ->
              let counts = Array.copy n.counts in
              counts.(i) <- counts.(i) + delta;
              (n.seps, n.children, counts)
          | Some { sep; right; right_count } ->
              let counts = Array.copy n.counts in
              counts.(i) <- counts.(i) + delta - right_count;
              ( insert_at n.seps i sep,
                insert_at n.children (i + 1) right,
                insert_at counts (i + 1) right_count )
        in
        if Array.length seps <= t.order then begin
          P.write t.pager page (Node { seps; children; counts });
          (added, None)
        end
        else begin
          let m = Array.length seps in
          let mid = m / 2 in
          let promoted = seps.(mid) in
          let rseps = Array.sub seps (mid + 1) (m - mid - 1) in
          let rchildren = Array.sub children (mid + 1) (m - mid) in
          let rcounts = Array.sub counts (mid + 1) (m - mid) in
          let right =
            P.alloc t.pager (Node { seps = rseps; children = rchildren; counts = rcounts })
          in
          P.write t.pager page
            (Node
               { seps = Array.sub seps 0 mid;
                 children = Array.sub children 0 (mid + 1);
                 counts = Array.sub counts 0 (mid + 1) });
          (added, Some { sep = promoted; right; right_count = sum rcounts })
        end

  let insert t k v =
    t.version <- t.version + 1;
    let _, sp = ins t t.root k v in
    match sp with
    | None -> ()
    | Some { sep; right; right_count } ->
        let left_count = node_entry_count (P.read t.pager t.root) in
        t.root <-
          P.alloc t.pager
            (Node
               { seps = [| sep |]; children = [| t.root; right |];
                 counts = [| left_count; right_count |] })

  (* ---- delete (lazy: no rebalancing, counts stay exact) ---- *)

  let delete t k =
    t.version <- t.version + 1;
    let rec go page =
      match P.read t.pager page with
      | Leaf l ->
          let i = key_index l.keys k in
          if i < Array.length l.keys && K.compare l.keys.(i) k = 0 then begin
            P.write t.pager page
              (Leaf { l with keys = remove_at l.keys i; vals = remove_at l.vals i });
            true
          end
          else false
      | Node n ->
          let i = child_index n.seps k in
          let removed = go n.children.(i) in
          if removed then begin
            let counts = Array.copy n.counts in
            counts.(i) <- counts.(i) - 1;
            P.write t.pager page (Node { n with counts })
          end;
          removed
    in
    go t.root

  (* ---- probing ---- *)

  let rec rank_in t f page =
    match P.read t.pager page with
    | Leaf l -> lower_bound f l.keys
    | Node n ->
        let i = lower_bound f n.seps in
        let before = ref 0 in
        for j = 0 to i - 1 do
          before := !before + n.counts.(j)
        done;
        !before + rank_in t f n.children.(i)

  let rank t f = rank_in t f t.root

  let count_range t ~lo ~hi =
    let n = rank t hi - rank t lo in
    if n < 0 then 0 else n

  (* ---- cursors ---- *)

  (* Position: before entry [idx] of the pinned leaf image [leaf]; [idx] may
     equal the leaf length, meaning "at the end of this leaf".  [cur] is the
     entry the last step passed over, -1 if none.  Steps inside [leaf] never
     touch the pager; the image cannot go stale because any update
     invalidates the cursor. *)
  type 'v cursor = { tree : 'v t; mutable leaf : 'v leaf; mutable idx : int; mutable cur : int }

  let seek_leaf t f l = { tree = t; leaf = l; idx = lower_bound f l.keys; cur = -1 }

  let rec seek_in t f page lo has_lo hi has_hi =
    match P.read t.pager page with
    | Leaf l ->
        record t page lo has_lo hi has_hi;
        seek_leaf t f l
    | Node n -> seek_node t f n lo has_lo hi has_hi

  and seek_node t f n lo has_lo hi has_hi =
    let i = lower_bound f n.seps in
    let m = Array.length n.seps in
    seek_in t f n.children.(i)
      (if i > 0 then n.seps.(i - 1) else lo) (has_lo || i > 0)
      (if i < m then n.seps.(i) else hi) (has_hi || i < m)

  let seek t f =
    let page = probe_finger t f 0 in
    if page <> nil then seek_leaf t f (read_leaf t page)
    else
      match P.read t.pager t.root with
      | Leaf l -> seek_leaf t f l
      | Node n -> seek_node t f n n.seps.(0) false n.seps.(0) false

  let seek_key t k = seek t (fun k' -> K.compare k' k)
  let seek_min t = seek t (fun _ -> 0)

  let rec seek_max_in t page =
    match P.read t.pager page with
    | Leaf l -> { tree = t; leaf = l; idx = Array.length l.keys; cur = -1 }
    | Node n -> seek_max_in t n.children.(Array.length n.children - 1)

  let seek_max t = seek_max_in t t.root

  (* empty leaves left by deletion are crossed without stopping *)
  let rec step c =
    if c.idx < Array.length c.leaf.keys then begin
      c.cur <- c.idx;
      c.idx <- c.idx + 1;
      true
    end
    else if c.leaf.next = nil then begin
      c.cur <- -1;
      false
    end
    else begin
      c.leaf <- read_leaf c.tree c.leaf.next;
      c.idx <- 0;
      step c
    end

  let rec step_back c =
    if c.idx > 0 then begin
      c.idx <- c.idx - 1;
      c.cur <- c.idx;
      true
    end
    else if c.leaf.prev = nil then begin
      c.cur <- -1;
      false
    end
    else begin
      c.leaf <- read_leaf c.tree c.leaf.prev;
      c.idx <- Array.length c.leaf.keys;
      step_back c
    end

  let key c = c.leaf.keys.(c.cur)
  let value c = c.leaf.vals.(c.cur)
  let next c = if step c then Some (key c, value c) else None
  let prev c = if step_back c then Some (key c, value c) else None

  let peek c =
    let leaf = c.leaf and idx = c.idx and cur = c.cur in
    let r = next c in
    c.leaf <- leaf;
    c.idx <- idx;
    c.cur <- cur;
    r

  let min_binding t = next (seek_min t)
  let max_binding t = prev (seek_max t)

  (* ---- iteration ---- *)

  let iter f t =
    let c = seek_min t in
    while step c do
      f (key c) (value c)
    done

  let fold f init t =
    let acc = ref init in
    iter (fun k v -> acc := f !acc k v) t;
    !acc

  let to_list t = List.rev (fold (fun acc k v -> (k, v) :: acc) [] t)

  (* ---- introspection ---- *)

  let stats t = P.stats t.pager
  let page_count t = P.page_count t.pager
  let resident_count t = P.resident_count t.pager
  let pool_pages t = P.pool_pages t.pager

  let check_invariants t =
    let fail fmt = Format.kasprintf failwith fmt in
    let leaves = ref [] in
    (* returns (entry count, leaf depth); bounds are exclusive/inclusive
       key constraints inherited from ancestors *)
    let rec go page lo hi =
      let in_bounds k =
        (match lo with None -> true | Some b -> K.compare b k <= 0)
        && match hi with None -> true | Some b -> K.compare k b < 0
      in
      match P.read t.pager page with
      | Leaf l ->
          let n = Array.length l.keys in
          if Array.length l.vals <> n then fail "leaf %d: keys/vals mismatch" page;
          for i = 0 to n - 2 do
            if K.compare l.keys.(i) l.keys.(i + 1) >= 0 then
              fail "leaf %d: keys not strictly sorted" page
          done;
          Array.iter
            (fun k -> if not (in_bounds k) then fail "leaf %d: key out of bounds" page)
            l.keys;
          leaves := (page, l.prev, l.next, l.keys) :: !leaves;
          (n, 1)
      | Node n ->
          let m = Array.length n.seps in
          if Array.length n.children <> m + 1 then fail "node %d: children arity" page;
          if Array.length n.counts <> m + 1 then fail "node %d: counts arity" page;
          for i = 0 to m - 2 do
            if K.compare n.seps.(i) n.seps.(i + 1) >= 0 then
              fail "node %d: separators not sorted" page
          done;
          Array.iter
            (fun s -> if not (in_bounds s) then fail "node %d: separator out of bounds" page)
            n.seps;
          let depth = ref 0 in
          let total = ref 0 in
          Array.iteri
            (fun i child ->
              let clo = if i = 0 then lo else Some n.seps.(i - 1) in
              let chi = if i = m then hi else Some n.seps.(i) in
              let cnt, d = go child clo chi in
              if cnt <> n.counts.(i) then
                fail "node %d: child %d count %d, recorded %d" page i cnt n.counts.(i);
              if !depth = 0 then depth := d
              else if d <> !depth then fail "node %d: uneven leaf depth" page;
              total := !total + cnt)
            n.children;
          (!total, !depth + 1)
    in
    ignore (go t.root None None);
    (* leaf chain must visit the leaves in key order *)
    let ordered = List.rev !leaves in
    let rec chain = function
      | (p1, _, next1, _) :: ((p2, prev2, _, _) :: _ as rest) ->
          if next1 <> p2 then fail "leaf chain: %d.next = %d, expected %d" p1 next1 p2;
          if prev2 <> p1 then fail "leaf chain: %d.prev = %d, expected %d" p2 prev2 p1;
          chain rest
      | [ (p, _, next, _) ] -> if next <> nil then fail "last leaf %d has a successor" p
      | [] -> ()
    in
    (match ordered with
    | (p, prev, _, _) :: _ -> if prev <> nil then fail "first leaf %d has a predecessor" p
    | [] -> ());
    chain ordered
end
