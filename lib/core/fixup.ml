open Snapdiff_storage
open Snapdiff_txn

type stats = {
  scanned : int;
  skipped : int;
  writes : int;
}

(* Figure 7, body of the scan loop, for the entry at [addr] whose current
   annotations are [ann].  [expect_prev] is the address of the last
   non-newly-inserted entry seen; [last_addr] the address of the last entry
   of any kind.  Returns the corrected annotations and the new ExpectPrev. *)
let step ~addr ~expect_prev ~last_addr ~fixup_time (ann : Annotations.t) =
  match ann.Annotations.prev_addr with
  | None ->
    (* Inserted entry: point it at its predecessor and stamp it.  It does
       NOT become ExpectPrev — the next entry's stored PrevAddr still
       refers to the pre-insertion neighbourhood. *)
    ( { Annotations.prev_addr = Some last_addr; timestamp = Some fixup_time },
      expect_prev )
  | Some prev ->
    let ts =
      match ann.Annotations.timestamp with
      | None -> Some fixup_time  (* updated entry *)
      | some -> some
    in
    let prev_addr, ts =
      if prev <> expect_prev then
        (* Deletion(s) between ExpectPrev and this entry: the empty region
           before this entry grew, so both fields change. *)
        (Some last_addr, Some fixup_time)
      else if prev <> last_addr then
        (* Only insertions between: repoint without stamping. *)
        (Some last_addr, ts)
      else (Some prev, ts)
    in
    ({ Annotations.prev_addr; timestamp = ts }, addr)

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
  fixup_time : Clock.ts;
  pages : int;
  mutable next_page : int;
  mutable expect_prev : Addr.t;
  mutable last_addr : Addr.t;
  mutable scanned : int;
  mutable skipped : int;
  mutable writes : int;
}

let start base ~fixup_time =
  { base; fixup_time; pages = Base_table.data_pages base; next_page = 1;
    expect_prev = Addr.zero; last_addr = Addr.zero; scanned = 0; skipped = 0; writes = 0 }

let fix_page c page =
  let base = c.base in
  match Base_table.page_summary base page with
  | Some s when can_skip s ~expect_prev:c.expect_prev ~last_addr:c.last_addr ->
    c.skipped <- c.skipped + s.Base_table.sum_live;
    if s.Base_table.sum_live > 0 then begin
      c.expect_prev <- s.Base_table.sum_last_live;
      c.last_addr <- s.Base_table.sum_last_live
    end
  | _ ->
    let entry_last_addr = c.last_addr in
    let live = ref 0 in
    let first_live = ref Addr.zero in
    let max_ts = ref Clock.never in
    Base_table.iter_page_stored base ~page (fun addr stored ->
        c.scanned <- c.scanned + 1;
        let _, ann = Annotations.split stored in
        let ann', expect_prev' =
          step ~addr ~expect_prev:c.expect_prev ~last_addr:c.last_addr
            ~fixup_time:c.fixup_time ann
        in
        if ann' <> ann then begin
          Base_table.set_stored base addr (Annotations.with_annotations stored ann');
          c.writes <- c.writes + 1
        end;
        c.expect_prev <- expect_prev';
        c.last_addr <- addr;
        if !live = 0 then first_live := addr;
        incr live;
        (match ann'.Annotations.timestamp with
        | Some ts when ts > !max_ts -> max_ts := ts
        | _ -> ()));
    (* The page was just fully restored, so this summary is exact; the
       first entry's corrected PrevAddr always equals LastAddr as it
       stood at the page boundary. *)
    ignore
      (Base_table.record_page_summary base ~page ~live:!live ~first_live:!first_live
         ~last_live:(if !live = 0 then Addr.zero else c.last_addr)
         ~first_prev:(if !live = 0 then Addr.zero else entry_last_addr)
         ~max_ts:!max_ts
        : int)

let scan_to c ~last_page =
  for page = c.next_page to min last_page c.pages do
    fix_page c page
  done;
  c.next_page <- max c.next_page (min last_page c.pages + 1)

let stats c = { scanned = c.scanned; skipped = c.skipped; writes = c.writes }

let run base ~fixup_time =
  let c = start base ~fixup_time in
  scan_to c ~last_page:c.pages;
  stats c
