module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

(* Small array-edit helpers shared by node surgery. *)
let arr_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < i then a.(j) else if j = i then x else a.(j - 1))

let arr_remove a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let arr_slice a lo len = Array.sub a lo len

module Make (Key : ORDERED) = struct
  type 'v node = {
    mutable keys : Key.t array;
    mutable vals : 'v array;
    mutable kids : 'v node array;  (* [||] for leaves *)
  }

  type 'v t = {
    degree : int;  (* minimum degree d: max 2d-1 keys, min d-1 *)
    mutable root : 'v node;
    mutable size : int;
  }

  let new_leaf () = { keys = [||]; vals = [||]; kids = [||] }

  let is_leaf n = Array.length n.kids = 0

  let nkeys n = Array.length n.keys

  let create ?(degree = 16) () =
    if degree < 2 then invalid_arg "Btree.create: degree must be >= 2";
    { degree; root = new_leaf (); size = 0 }

  let length t = t.size

  let is_empty t = t.size = 0

  (* First index i with keys.(i) >= k.  Returns a bare int, so a descent
     allocates nothing per level; [hit] tells an exact match. *)
  let locate n k =
    let lo = ref 0 and hi = ref (nkeys n) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Key.compare n.keys.(mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let hit n i k = i < nkeys n && Key.compare n.keys.(i) k = 0

  let rec find_node n k =
    let i = locate n k in
    if hit n i k then Some n.vals.(i)
    else if is_leaf n then None
    else find_node n.kids.(i) k

  let find t k = find_node t.root k

  let mem t k = find t k <> None

  (* Split the full child [i] of [parent]; [parent] must not be full. *)
  let split_child t parent i =
    let d = t.degree in
    let c = parent.kids.(i) in
    let mid_key = c.keys.(d - 1) and mid_val = c.vals.(d - 1) in
    let right =
      {
        keys = arr_slice c.keys d (d - 1);
        vals = arr_slice c.vals d (d - 1);
        kids = (if is_leaf c then [||] else arr_slice c.kids d d);
      }
    in
    c.keys <- arr_slice c.keys 0 (d - 1);
    c.vals <- arr_slice c.vals 0 (d - 1);
    if not (is_leaf c) then c.kids <- arr_slice c.kids 0 d;
    parent.keys <- arr_insert parent.keys i mid_key;
    parent.vals <- arr_insert parent.vals i mid_val;
    parent.kids <- arr_insert parent.kids (i + 1) right

  let rec insert_nonfull t n k v =
    let i = locate n k in
    if hit n i k then n.vals.(i) <- v
    else if is_leaf n then begin
      n.keys <- arr_insert n.keys i k;
      n.vals <- arr_insert n.vals i v;
      t.size <- t.size + 1
    end
    else begin
      let i =
        if nkeys n.kids.(i) = (2 * t.degree) - 1 then begin
          split_child t n i;
          let c = Key.compare n.keys.(i) k in
          if c = 0 then begin
            n.vals.(i) <- v;
            -1  (* replaced at the promoted key *)
          end
          else if c < 0 then i + 1
          else i
        end
        else i
      in
      if i >= 0 then insert_nonfull t n.kids.(i) k v
    end

  let insert t k v =
    let full = (2 * t.degree) - 1 in
    if nkeys t.root = full then begin
      let old = t.root in
      let fresh = { keys = [||]; vals = [||]; kids = [| old |] } in
      t.root <- fresh;
      split_child t fresh 0
    end;
    insert_nonfull t t.root k v

  let rec max_in n =
    if is_leaf n then (n.keys.(nkeys n - 1), n.vals.(nkeys n - 1))
    else max_in n.kids.(Array.length n.kids - 1)

  let rec min_in n =
    if is_leaf n then (n.keys.(0), n.vals.(0))
    else min_in n.kids.(0)

  let min_binding t = if t.size = 0 then None else Some (min_in t.root)
  let max_binding t = if t.size = 0 then None else Some (max_in t.root)

  (* Merge child i, separator i, and child i+1 into child i. *)
  let merge_children n i =
    let left = n.kids.(i) and right = n.kids.(i + 1) in
    left.keys <- Array.concat [ left.keys; [| n.keys.(i) |]; right.keys ];
    left.vals <- Array.concat [ left.vals; [| n.vals.(i) |]; right.vals ];
    if not (is_leaf left) then left.kids <- Array.append left.kids right.kids;
    n.keys <- arr_remove n.keys i;
    n.vals <- arr_remove n.vals i;
    n.kids <- arr_remove n.kids (i + 1)

  (* Ensure kids.(i) has at least [d] keys before descending into it;
     returns the index to descend into (merging may shift it). *)
  let fix_child t n i =
    let d = t.degree in
    let c = n.kids.(i) in
    if nkeys c >= d then i
    else if i > 0 && nkeys n.kids.(i - 1) >= d then begin
      (* Borrow from the left sibling through the separator. *)
      let left = n.kids.(i - 1) in
      let lk = nkeys left - 1 in
      c.keys <- arr_insert c.keys 0 n.keys.(i - 1);
      c.vals <- arr_insert c.vals 0 n.vals.(i - 1);
      n.keys.(i - 1) <- left.keys.(lk);
      n.vals.(i - 1) <- left.vals.(lk);
      left.keys <- arr_remove left.keys lk;
      left.vals <- arr_remove left.vals lk;
      if not (is_leaf left) then begin
        c.kids <- arr_insert c.kids 0 left.kids.(Array.length left.kids - 1);
        left.kids <- arr_remove left.kids (Array.length left.kids - 1)
      end;
      i
    end
    else if i < nkeys n && nkeys n.kids.(i + 1) >= d then begin
      (* Borrow from the right sibling. *)
      let right = n.kids.(i + 1) in
      c.keys <- Array.append c.keys [| n.keys.(i) |];
      c.vals <- Array.append c.vals [| n.vals.(i) |];
      n.keys.(i) <- right.keys.(0);
      n.vals.(i) <- right.vals.(0);
      right.keys <- arr_remove right.keys 0;
      right.vals <- arr_remove right.vals 0;
      if not (is_leaf right) then begin
        c.kids <- Array.append c.kids [| right.kids.(0) |];
        right.kids <- arr_remove right.kids 0
      end;
      i
    end
    else if i > 0 then begin
      merge_children n (i - 1);
      i - 1
    end
    else begin
      merge_children n i;
      i
    end

  let rec remove_from t n k =
    let d = t.degree in
    let i = locate n k in
    if hit n i k then begin
      if is_leaf n then begin
        n.keys <- arr_remove n.keys i;
        n.vals <- arr_remove n.vals i;
        true
      end
      else if nkeys n.kids.(i) >= d then begin
        let pk, pv = max_in n.kids.(i) in
        n.keys.(i) <- pk;
        n.vals.(i) <- pv;
        ignore (remove_from t n.kids.(i) pk : bool);
        true
      end
      else if nkeys n.kids.(i + 1) >= d then begin
        let sk, sv = min_in n.kids.(i + 1) in
        n.keys.(i) <- sk;
        n.vals.(i) <- sv;
        ignore (remove_from t n.kids.(i + 1) sk : bool);
        true
      end
      else begin
        merge_children n i;
        remove_from t n.kids.(i) k
      end
    end
    else if is_leaf n then false
    else begin
      (* [k] is not in this node, so rebalancing cannot move it here:
         borrowed separators come from subtrees that exclude [k], and a
         merge only pulls an existing (non-[k]) separator down. *)
      let i = fix_child t n i in
      remove_from t n.kids.(i) k
    end

  let remove t k =
    let removed = remove_from t t.root k in
    if removed then t.size <- t.size - 1;
    if nkeys t.root = 0 && not (is_leaf t.root) then t.root <- t.root.kids.(0);
    removed

  let rec iter_node n f =
    if is_leaf n then
      for i = 0 to nkeys n - 1 do
        f n.keys.(i) n.vals.(i)
      done
    else begin
      for i = 0 to nkeys n - 1 do
        iter_node n.kids.(i) f;
        f n.keys.(i) n.vals.(i)
      done;
      iter_node n.kids.(nkeys n) f
    end

  let iter t f = iter_node t.root f

  let rec iter_range_node n lo hi f =
    let below k = match lo with None -> false | Some l -> Key.compare k l < 0 in
    let above k = match hi with None -> false | Some h -> Key.compare k h > 0 in
    let from =
      match lo with
      | None -> 0
      | Some l -> locate n l
    in
    if is_leaf n then begin
      let i = ref from in
      while !i < nkeys n && not (above n.keys.(!i)) do
        if not (below n.keys.(!i)) then f n.keys.(!i) n.vals.(!i);
        incr i
      done
    end
    else begin
      let i = ref from in
      let stop = ref false in
      while not !stop && !i <= nkeys n do
        if !i < nkeys n then begin
          iter_range_node n.kids.(!i) lo hi f;
          let k = n.keys.(!i) in
          if above k then stop := true
          else begin
            if not (below k) then f k n.vals.(!i);
            incr i
          end
        end
        else begin
          iter_range_node n.kids.(!i) lo hi f;
          incr i
        end
      done
    end

  let iter_range t ?lo ?hi f = iter_range_node t.root lo hi f

  let find_first t ~lo =
    (* A descent remembering the last node whose key at [i] lies above
       [lo] (the best successor so far): O(log n), no traversal closure. *)
    let rec go n best bi =
      let i = locate n lo in
      if hit n i lo then Some (n.keys.(i), n.vals.(i))
      else if i < nkeys n then
        if is_leaf n then Some (n.keys.(i), n.vals.(i)) else go n.kids.(i) n i
      else if not (is_leaf n) then go n.kids.(i) best bi
      else if bi < 0 then None
      else Some (best.keys.(bi), best.vals.(bi))
    in
    go t.root t.root (-1)

  let find_last t ~hi =
    (* No reverse iterator; a descent tracking the best-so-far is O(log n). *)
    let rec go n best =
      let i = locate n hi in
      if hit n i hi then Some (n.keys.(i), n.vals.(i))
      else begin
        let best = if i > 0 then Some (n.keys.(i - 1), n.vals.(i - 1)) else best in
        if is_leaf n then best else go n.kids.(i) best
      end
    in
    go t.root None

  let keys_in_range t ?lo ?hi () =
    let acc = ref [] in
    iter_range t ?lo ?hi (fun k _ -> acc := k :: !acc);
    List.rev !acc

  let fold t ~init ~f =
    let acc = ref init in
    iter t (fun k v -> acc := f !acc k v);
    !acc

  let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

  let of_list ?degree l =
    let t = create ?degree () in
    List.iter (fun (k, v) -> insert t k v) l;
    t

  let clear t =
    t.root <- new_leaf ();
    t.size <- 0

  let rec depth n = if is_leaf n then 1 else 1 + depth n.kids.(0)

  let height t = depth t.root

  let validate t =
    let d = t.degree in
    let problem = ref None in
    let fail fmt = Format.kasprintf (fun m -> if !problem = None then problem := Some m) fmt in
    let count = ref 0 in
    let rec check n ~is_root ~lo ~hi =
      let k = nkeys n in
      count := !count + k;
      if (not is_root) && k < d - 1 then fail "underfull node (%d keys)" k;
      if k > (2 * d) - 1 then fail "overfull node (%d keys)" k;
      if Array.length n.vals <> k then fail "vals/keys mismatch";
      for i = 0 to k - 2 do
        if Key.compare n.keys.(i) n.keys.(i + 1) >= 0 then fail "keys out of order"
      done;
      (match lo with
      | Some l -> if k > 0 && Key.compare n.keys.(0) l <= 0 then fail "key below subtree bound"
      | None -> ());
      (match hi with
      | Some h ->
        if k > 0 && Key.compare n.keys.(k - 1) h >= 0 then fail "key above subtree bound"
      | None -> ());
      if not (is_leaf n) then begin
        if Array.length n.kids <> k + 1 then fail "kids/keys mismatch";
        let depths = Array.map depth n.kids in
        Array.iter (fun dep -> if dep <> depths.(0) then fail "uneven leaf depth") depths;
        for i = 0 to k do
          let lo' = if i = 0 then lo else Some n.keys.(i - 1) in
          let hi' = if i = k then hi else Some n.keys.(i) in
          check n.kids.(i) ~is_root:false ~lo:lo' ~hi:hi'
        done
      end
    in
    check t.root ~is_root:true ~lo:None ~hi:None;
    if !problem = None && !count <> t.size then
      fail "size %d does not match key count %d" t.size !count;
    match !problem with None -> Ok () | Some m -> Error m
end
