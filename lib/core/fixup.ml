open Snapdiff_storage
open Snapdiff_txn
module Trace = Snapdiff_obs.Trace

type stats = {
  scanned : int;
  skipped : int;
  writes : int;
  bytes : int;
}

type chain = {
  fixup_time : Clock.ts;
  mutable expect_prev : Addr.t;
  mutable last_addr : Addr.t;
  mutable prev : int;
  mutable ts : int;
}

let chain ~fixup_time =
  { fixup_time; expect_prev = Addr.zero; last_addr = Addr.zero; prev = Annotations.null;
    ts = Annotations.null }

(* Figure 7, body of the scan loop, for the entry at [addr] whose current
   raw annotations are [prev]/[ts].  [expect_prev] is the address of the
   last non-newly-inserted entry seen; [last_addr] the address of the last
   entry of any kind.  Leaves the corrected fields in [c.prev]/[c.ts] and
   reports whether either changed.  Ints only: nothing is allocated. *)
let step c ~addr ~prev ~ts =
  let null = Annotations.null in
  if prev = null then begin
    (* Inserted entry: point it at its predecessor and stamp it.  It does
       NOT become ExpectPrev — the next entry's stored PrevAddr still
       refers to the pre-insertion neighbourhood. *)
    c.prev <- c.last_addr;
    c.ts <- c.fixup_time
  end
  else begin
    if prev <> c.expect_prev then begin
      (* Deletion(s) between ExpectPrev and this entry: the empty region
         before this entry grew, so both fields change. *)
      c.prev <- c.last_addr;
      c.ts <- c.fixup_time
    end
    else begin
      (* No deletion: PrevAddr becomes LastAddr, which differs from it
         only if entries were inserted between — a repoint without a
         stamp.  An updated entry (NULL TimeStamp) gets stamped. *)
      c.prev <- c.last_addr;
      c.ts <- (if ts = null then c.fixup_time else ts)
    end;
    c.expect_prev <- addr
  end;
  c.last_addr <- addr;
  c.prev <> prev || c.ts <> ts

(* A page with a summary may be skipped when doing so provably leaves the
   same annotation state a full decode would: the summary's existence means
   no NULL annotations and an internally intact PrevAddr chain (it was
   recorded by a scan that had just restored the page, and any mutation
   since would have removed it), so no step on the page can write — as long
   as the scan state at the page boundary matches what the page's entries
   expect.  [ExpectPrev = LastAddr] rules out a pending insertion before
   the page (which would require repointing the first entry), and
   [first_prev = ExpectPrev] rules out a deletion anomaly at the boundary. *)
let can_skip (s : Base_table.page_summary) ~expect_prev ~last_addr =
  s.Base_table.sum_live = 0
  || (expect_prev = last_addr && s.Base_table.sum_first_prev = expect_prev)

(* ---- one page under one pin ---------------------------------------- *)

type timing = {
  mutable load_us : float;
  mutable fixup_us : float;
  mutable filter_us : float;
  mutable emit_us : float;
}

type annotations = Fix of chain | Read | Skip

type page_scan = {
  arena : Decode_arena.t;  (* page copy, spans and field offsets *)
  mutable page : int;  (* the page last loaded *)
  mutable addrs : int array;  (* entry k's address *)
  mutable prevs : int array;  (* entry k's PrevAddr, corrected under [Fix] *)
  mutable tss : int array;  (* entry k's TimeStamp, likewise *)
  tail : bytes;  (* the patch buffer, [Annotations.tail_bytes] long *)
  mutable writes : int;
  mutable bytes : int;
  timing : timing;
}

let page_scan () =
  { arena = Decode_arena.create (); page = 0; addrs = Array.make 64 0; prevs = Array.make 64 0;
    tss = Array.make 64 0;
    tail = Bytes.create Annotations.tail_bytes; writes = 0; bytes = 0;
    timing = { load_us = 0.0; fixup_us = 0.0; filter_us = 0.0; emit_us = 0.0 } }

let entries ps = Decode_arena.length ps.arena

let fields ps k = Decode_arena.fields ps.arena k

(* The record's user columns precede its two annotation fields, so all of
   them are one contiguous byte range. *)
let row ps k cols =
  let f = fields ps k in
  match cols with
  | None -> Row.of_prefix f (Codec.Fields.count f - 2)
  | Some idx -> Row.of_fields f idx

(* Phase 1 of a page: while the page is pinned, copy it, walk each record
   and, under [Fix], run the Figure 7 step on the two raw fields and patch
   a changed tail straight into the frame.  A record whose annotations are
   not both integers has no fixed tail; it is rewritten whole once the
   pin is released.  The frame is marked dirty and the summary dropped
   once, by [Base_table.load_page], even when a walk fails part-way: the
   writes before the failing record stand, as they would have with a pin
   per write, and the failure is raised after them. *)
let load_page ps base ~page ann =
  let a = ps.arena and tm = ps.timing in
  ps.page <- page;
  let t0 = Trace.now_us () in
  let t1 = ref t0 and t2 = ref t0 in
  let rewrites = ref [] and failure = ref None in
  Base_table.load_page base ~arena:a ~page (fun pg ->
      t1 := Trace.now_us ();
      let n = Decode_arena.length a in
      if n > Array.length ps.prevs then begin
        ps.addrs <- Array.make (2 * n) 0;
        ps.prevs <- Array.make (2 * n) 0;
        ps.tss <- Array.make (2 * n) 0
      end;
      let wrote = ref false in
      (try
         for k = 0 to n - 1 do
           Decode_arena.walk a k;
           ps.addrs.(k) <- Addr.make ~page ~slot:(Decode_arena.slot a k);
           match ann with
           | Skip -> ()
           | Read ->
             let f = Decode_arena.fields a k in
             ps.prevs.(k) <- Annotations.record_prev f;
             ps.tss.(k) <- Annotations.record_ts f
           | Fix ch ->
             let f = Decode_arena.fields a k in
             let prev = Annotations.record_prev f and ts = Annotations.record_ts f in
             if step ch ~addr:ps.addrs.(k) ~prev ~ts then begin
               if Annotations.record_patchable f then begin
                 Annotations.write_tail ps.tail ~prev:ch.prev ~ts:ch.ts;
                 if not (Page.overwrite_tail pg (Decode_arena.slot a k) ps.tail) then
                   invalid_arg "Fixup.load_page: record shorter than its tail";
                 wrote := true;
                 ps.writes <- ps.writes + 1;
                 ps.bytes <- ps.bytes + Annotations.tail_bytes
               end
               else rewrites := (k, ch.prev, ch.ts) :: !rewrites
             end;
             ps.prevs.(k) <- ch.prev;
             ps.tss.(k) <- ch.ts
         done
       with e -> failure := Some (e, Printexc.get_raw_backtrace ()));
      t2 := Trace.now_us ();
      !wrote);
  let t3 = Trace.now_us () in
  tm.load_us <- tm.load_us +. (!t1 -. t0) +. (t3 -. !t2);
  tm.fixup_us <- tm.fixup_us +. (!t2 -. !t1);
  if !rewrites <> [] then begin
    List.iter
      (fun (k, prev, ts) ->
        let f = Decode_arena.fields a k in
        let stored = Codec.Fields.tuple f ~n:(Codec.Fields.count f) in
        ps.bytes <- ps.bytes + Base_table.set_annotations base ps.addrs.(k) stored ~prev ~ts;
        ps.writes <- ps.writes + 1)
      (List.rev !rewrites);
    tm.fixup_us <- tm.fixup_us +. (Trace.now_us () -. t3)
  end;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure

(* ---- the standalone pass ------------------------------------------- *)

type cursor = {
  base : Base_table.t;
  chain : chain;
  pages : int;
  mutable next_page : int;
  mutable scanned : int;
  mutable skipped : int;
  ps : page_scan;
}

let start base ~fixup_time =
  { base; chain = chain ~fixup_time; pages = Base_table.data_pages base; next_page = 1;
    scanned = 0; skipped = 0; ps = page_scan () }

let fix_page c page =
  let base = c.base and ch = c.chain in
  match Base_table.page_summary base page with
  | Some s when can_skip s ~expect_prev:ch.expect_prev ~last_addr:ch.last_addr ->
    c.skipped <- c.skipped + s.Base_table.sum_live;
    if s.Base_table.sum_live > 0 then begin
      ch.expect_prev <- s.Base_table.sum_last_live;
      ch.last_addr <- s.Base_table.sum_last_live
    end
  | _ ->
    let entry_last_addr = ch.last_addr in
    load_page c.ps base ~page (Fix ch);
    let live = entries c.ps in
    c.scanned <- c.scanned + live;
    let max_ts = ref Clock.never in
    for k = 0 to live - 1 do
      if c.ps.tss.(k) > !max_ts then max_ts := c.ps.tss.(k)
    done;
    (* The page was just fully restored, so this summary is exact; the
       first entry's corrected PrevAddr always equals LastAddr as it
       stood at the page boundary. *)
    ignore
      (Base_table.record_page_summary base ~page ~live
         ~first_live:(if live = 0 then Addr.zero else c.ps.addrs.(0))
         ~last_live:(if live = 0 then Addr.zero else ch.last_addr)
         ~first_prev:(if live = 0 then Addr.zero else entry_last_addr)
         ~max_ts:!max_ts
        : int)

let scan_to c ~last_page =
  for page = c.next_page to min last_page c.pages do
    fix_page c page
  done;
  c.next_page <- max c.next_page (min last_page c.pages + 1)

let stats c =
  { scanned = c.scanned; skipped = c.skipped; writes = c.ps.writes; bytes = c.ps.bytes }

let timing c = c.ps.timing

let run base ~fixup_time =
  let c = start base ~fixup_time in
  scan_to c ~last_page:c.pages;
  stats c
