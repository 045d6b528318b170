type t = { lock : Mutex.t; mutable next_id : int; leases : (int, Lease.t) Hashtbl.t }

let create () = { lock = Mutex.create (); next_id = 0; leases = Hashtbl.create 8 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let acquire t ~kind ?(holder = "?") ~lsn () =
  locked t (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let l = Lease.make ~kind ~holder ~lsn in
      (* The release hook re-enters this horizon's lock; Lease.release is
         only ever called outside of it (no horizon call runs user code
         under the lock), so the order is always lease -> horizon. *)
      Lease.set_on_release l (fun () ->
          locked t (fun () -> Hashtbl.remove t.leases id));
      Hashtbl.replace t.leases id l;
      l)

let with_lease t ~kind ?holder ~lsn f =
  let l = acquire t ~kind ?holder ~lsn () in
  Fun.protect ~finally:(fun () -> Lease.release l) (fun () -> f l)

let lease_count t = locked t (fun () -> Hashtbl.length t.leases)

let lsn_floor t ~ceiling =
  let floor, gating =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ l ((floor, gating) as acc) ->
            let lsn = Lease.lsn l in
            if lsn < ceiling then (min lsn floor, Lease.gating_of l :: gating) else acc)
          t.leases (ceiling, []))
  in
  ( floor,
    List.sort
      (fun a b ->
        compare (a.Lease.g_lsn, a.Lease.g_holder) (b.Lease.g_lsn, b.Lease.g_holder))
      gating )
