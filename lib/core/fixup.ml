open Snapdiff_storage
open Snapdiff_txn

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

type cursor = {
  base : Base_table.t;
  chain : chain;
  pages : int;
  mutable next_page : int;
  mutable scanned : int;
  mutable skipped : int;
  mutable writes : int;
  mutable bytes : int;
  arena : Decode_arena.t;
}

let start base ~fixup_time =
  { base; chain = chain ~fixup_time; pages = Base_table.data_pages base; next_page = 1;
    scanned = 0; skipped = 0; writes = 0; bytes = 0; arena = Decode_arena.create () }

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
    let live = ref 0 in
    let first_live = ref Addr.zero in
    let max_ts = ref Clock.never in
    Base_table.iter_page_stored_arena base ~arena:c.arena ~page (fun addr stored ->
        c.scanned <- c.scanned + 1;
        if
          step ch ~addr ~prev:(Annotations.raw_prev stored) ~ts:(Annotations.raw_ts stored)
        then begin
          c.bytes <- c.bytes + Base_table.set_annotations base addr stored ~prev:ch.prev ~ts:ch.ts;
          c.writes <- c.writes + 1
        end;
        if !live = 0 then first_live := addr;
        incr live;
        if ch.ts > !max_ts then max_ts := ch.ts);
    (* The page was just fully restored, so this summary is exact; the
       first entry's corrected PrevAddr always equals LastAddr as it
       stood at the page boundary. *)
    ignore
      (Base_table.record_page_summary base ~page ~live:!live ~first_live:!first_live
         ~last_live:(if !live = 0 then Addr.zero else ch.last_addr)
         ~first_prev:(if !live = 0 then Addr.zero else entry_last_addr)
         ~max_ts:!max_ts
        : int)

let scan_to c ~last_page =
  for page = c.next_page to min last_page c.pages do
    fix_page c page
  done;
  c.next_page <- max c.next_page (min last_page c.pages + 1)

let stats c = { scanned = c.scanned; skipped = c.skipped; writes = c.writes; bytes = c.bytes }

let run base ~fixup_time =
  let c = start base ~fixup_time in
  scan_to c ~last_page:c.pages;
  stats c
