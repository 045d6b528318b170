open Snapdiff_storage
open Snapdiff_txn
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace

let m_entries_decoded = Metrics.counter Metrics.global "refresh.entries_decoded"
let m_entries_pruned = Metrics.counter Metrics.global "refresh.entries_pruned"
let m_pages_decoded = Metrics.counter Metrics.global "refresh.pages_decoded"
let m_pages_skipped = Metrics.counter Metrics.global "refresh.pages_skipped"
let m_fixup_writes = Metrics.counter Metrics.global "refresh.fixup_writes"
let m_group_scans = Metrics.counter Metrics.global "refresh.group_scans"
let m_group_subscribers = Metrics.counter Metrics.global "refresh.group_subscribers"
let m_group_decodes_saved = Metrics.counter Metrics.global "refresh.group_decodes_saved"

(* Page-indexed: page [p]'s token (0: no entry, since tokens start at 1),
   first and last qualifying addresses ([Addr.zero]: none qualifies, since
   no entry has address 0) and the first qualifying entry's projected row,
   which a pending [Deletion] sends without decoding the page. *)
module Prune_cache = struct
  type t = {
    mutable tokens : int array;
    mutable first_quals : Addr.t array;
    mutable last_quals : Addr.t array;
    mutable first_rows : Row.t array;
  }

  let no_row = Row.of_tuple (Tuple.make [])

  let create () =
    { tokens = Array.make 64 0; first_quals = Array.make 64 Addr.zero;
      last_quals = Array.make 64 Addr.zero; first_rows = Array.make 64 no_row }

  let token t page = if page < Array.length t.tokens then t.tokens.(page) else 0

  let set t page ~token ~first_qual ~last_qual ~first_row =
    let n = Array.length t.tokens in
    if page >= n then begin
      let cap = max (page + 1) (2 * n) in
      let grow a zero = Array.init cap (fun i -> if i < n then a.(i) else zero) in
      t.tokens <- grow t.tokens 0;
      t.first_quals <- grow t.first_quals Addr.zero;
      t.last_quals <- grow t.last_quals Addr.zero;
      t.first_rows <- grow t.first_rows no_row
    end;
    t.tokens.(page) <- token;
    t.first_quals.(page) <- first_qual;
    t.last_quals.(page) <- last_qual;
    t.first_rows.(page) <- first_row

  let remove t page = if page < Array.length t.tokens then t.tokens.(page) <- 0
end

type report = {
  new_snaptime : Clock.ts;
  entries_scanned : int;
  entries_skipped : int;
  pages_decoded : int;
  pages_skipped : int;
  fixup_writes : int;
  fixup_bytes : int;
  data_messages : int;
  tail_suppressed : bool;
}

type subscriber = {
  sub_full : bool;
  sub_snaptime : Clock.ts;
  sub_restrict : Snapdiff_expr.Eval.record_pred;
  sub_project : int array option;
  sub_tail_suppression : Addr.t option;
  sub_prune : Prune_cache.t option;
  sub_xmit : Refresh_msg.t array -> int -> unit;
}

let each xmit msgs n =
  for j = 0 to n - 1 do
    xmit msgs.(j)
  done

type group_report = {
  group_pages : int;
  group_pages_decoded : int;
  group_decodes_saved : int;
  group_fixup_writes : int;
  sub_reports : report array;
}

(* Per-subscriber scan state: exactly the refs a solo refresh keeps, minus
   the fix-up state, which belongs to the base table and is shared. *)
type sub_state = {
  sub : subscriber;
  mutable new_snaptime : Clock.ts;
  mutable last_qual : Addr.t;
  mutable deletion : bool;
  mutable scanned : int;
  mutable skipped : int;
  mutable st_pages_decoded : int;
  mutable st_pages_skipped : int;
  mutable data_messages : int;
  mutable page_first : int;  (* the decoded page's first qualifying entry; -1: none yet *)
  mutable page_first_row : Row.t;  (* that entry's projected row, for [sub_prune] *)
  mutable qualified : Bytes.t;  (* the restriction over the page being decoded, per entry *)
  mutable out : Refresh_msg.t array;  (* the page's messages: one burst, after its phases *)
  mutable n_out : int;
}

(* What one subscriber does with the current page. *)
type page_decision =
  | Decode
  | Skip_empty  (* summary proves the page holds no live entries *)
  | Skip_cached  (* summary + cached last qualifying address prove the decode moot *)

(* The scan as a resumable state machine: [start] ticks the clocks and
   snapshots the page count, [scan_to] advances the cursor page by page
   (suspendable at any page boundary — everything the loop used to keep in
   local refs lives in the cursor), [emit_tails] closes the address-ordered
   part of each stream, and [finish] sends the Snaptime markers and builds
   the report.  The one-shot [refresh_group] below composes them back into
   the original monolithic pass, so a caller that never suspends gets the
   exact former behaviour; the chunked refresh path in [Manager] suspends
   between page ranges (releasing its page locks) and injects catch-up
   messages between [emit_tails] and [finish]. *)
type cursor = {
  base : Base_table.t;
  deferred : bool;
  states : sub_state array;
  (* Shared fix-up state (deferred mode only): it tracks the base table's
     annotation chain, not any one subscriber, so one copy serves the whole
     group.  After a decoded page's chain is repaired — or a skipped page's
     summary proves it intact — the state lands on the page's last live
     address either way, which is why per-subscriber skip decisions can all
     read the same chain. *)
  chain : Fixup.chain;
  mutable pages_decoded : int;
  pages : int;  (* data pages at scan start; later growth is catch-up's job *)
  mutable next_page : int;
  mutable tails_sent : bool;
  ps : Fixup.page_scan;  (* the scan's one page scratch, reused page to page *)
  summaries : bool;  (* some subscriber may skip a page: read page summaries *)
  decisions : page_decision array;  (* per subscriber, for the current page *)
}

let push st m =
  if st.n_out = Array.length st.out then
    st.out <- Array.init (2 * st.n_out) (fun j -> if j < st.n_out then st.out.(j) else m);
  st.out.(st.n_out) <- m;
  st.n_out <- st.n_out + 1

(* The queued messages go to the stream in one burst, borrowed for the
   call. *)
let flush st =
  let n = st.n_out in
  if n > 0 then begin
    st.n_out <- 0;
    for j = 0 to n - 1 do
      if Refresh_msg.is_data st.out.(j) then st.data_messages <- st.data_messages + 1
    done;
    st.sub.sub_xmit st.out n
  end

let send st m =
  push st m;
  flush st

let start ~base subs =
  let n_subs = Array.length subs in
  if n_subs = 0 then invalid_arg "Differential.refresh_group: empty group";
  let deferred = Base_table.mode base = Base_table.Deferred in
  let states =
    Array.map
      (fun sub ->
        { sub; new_snaptime = Clock.never; last_qual = Addr.zero; deletion = false;
          scanned = 0; skipped = 0; st_pages_decoded = 0; st_pages_skipped = 0;
          data_messages = 0; page_first = -1; page_first_row = Prune_cache.no_row;
          qualified = Bytes.create 64;
          out = Array.make 16 Refresh_msg.Clear; n_out = 0 })
      subs
  in
  (* One clock tick per subscriber, in subscriber order: subscriber [i]'s
     new SnapTime is exactly the timestamp the i-th of a sequence of solo
     refreshes (same order, same table lock) would have drawn.  The first
     tick doubles as the shared FixupTime — in a solo sequence the first
     refresher is the one whose fix-up pass stamps every disturbed entry,
     and later refreshers find the fields already restored. *)
  for i = 0 to n_subs - 1 do
    states.(i).new_snaptime <- Clock.tick (Base_table.clock base)
  done;
  (* "The snapshot is first cleared and then the received data is
     inserted." *)
  Array.iter (fun st -> if st.sub.sub_full then send st Refresh_msg.Clear) states;
  {
    base;
    deferred;
    states;
    chain = Fixup.chain ~fixup_time:states.(0).new_snaptime;
    pages_decoded = 0;
    pages = Base_table.data_pages base;
    next_page = 1;
    tails_sent = false;
    ps = Fixup.page_scan ();
    summaries = Array.exists (fun sub -> sub.sub_full || sub.sub_prune <> None) subs;
    decisions = Array.make n_subs Decode;
  }

let pages c = c.pages

let fixup_time c = c.chain.Fixup.fixup_time

let timing c = c.ps.Fixup.timing

(* A subscriber may skip a page under exactly the solo conditions.  A
   full subscriber, or one with a qualification cache, skips a page its
   summary [s] proves empty.  Beyond that, a differential subscriber
   skips when the summary proves nothing on the page is newer than its
   SnapTime, the (shared) chain state shows no anomaly pending at the
   boundary, and its own qualification cache supplies the page's last
   qualifying address; a full subscriber sends every qualified entry, so
   it decodes every other page.  A pending [Deletion] rides the cache
   too: nothing on the page changed, so a decode would send exactly one
   [Entry], for the page's first qualifying entry, whose address and row
   the cache holds.  A skip advances the subscriber's state at once and
   queues that message; the page is decoded iff any subscriber cannot
   skip it. *)
let decide c st page (s : Base_table.page_summary option) =
  match (s, st.sub.sub_prune) with
  | Some s, _ when s.sum_live = 0 && (st.sub.sub_full || st.sub.sub_prune <> None) ->
    st.st_pages_skipped <- st.st_pages_skipped + 1;
    Skip_empty
  | None, _ | _, None -> Decode
  | Some s, Some cache ->
    if st.sub.sub_full || s.sum_max_ts > st.sub.sub_snaptime then Decode
    else if
      c.deferred
      && not (c.chain.expect_prev = c.chain.last_addr && s.sum_first_prev = c.chain.expect_prev)
    then Decode
    else if Prune_cache.token cache page <> s.sum_token then Decode
    else begin
      let last_qual = cache.Prune_cache.last_quals.(page) in
      st.st_pages_skipped <- st.st_pages_skipped + 1;
      st.skipped <- st.skipped + s.sum_live;
      if last_qual <> Addr.zero then begin
        if st.deletion then begin
          push st
            (Refresh_msg.Entry
               { addr = cache.first_quals.(page); prev_qual = st.last_qual;
                 row = cache.first_rows.(page) });
          st.deletion <- false
        end;
        st.last_qual <- last_qual
      end;
      Skip_cached
    end

(* The per-page scan body.  Everything stateful (decisions, fix-up,
   LastQual/Deletion, summaries, prune caches) happens here, in address
   order, over the entries the cursor's arena decodes from the page. *)
let scan_page c page =
  let base = c.base in
  let deferred = c.deferred in
  let states = c.states in
  let decisions = c.decisions in
  let summary = if c.summaries then Base_table.page_summary base page else None in
  let need_decode = ref false in
  for i = 0 to Array.length states - 1 do
    let d = decide c states.(i) page summary in
    decisions.(i) <- d;
    if d = Decode then need_decode := true
  done;
  if not !need_decode then begin
    (* Nobody needs the page decoded: every subscriber advanced by its own
       skip rule, and the shared chain state advances once from the
       summary.  All skip decisions on one page saw the same summary:
       either the page is provably empty — chain untouched — or its last
       live address is where an actual decode would have left the
       chain. *)
    match summary with
    | Some s when deferred && Array.exists (fun d -> d = Skip_cached) decisions ->
      c.chain.expect_prev <- s.sum_last_live;
      c.chain.last_addr <- s.sum_last_live
    | _ -> ()
  end
  else begin
    (* Decode once; feed the entries to exactly the subscribers that need
       them, while the skippers have advanced by their fast path. *)
    c.pages_decoded <- c.pages_decoded + 1;
    for i = 0 to Array.length states - 1 do
      if decisions.(i) = Decode then begin
        let st = states.(i) in
        st.st_pages_decoded <- st.st_pages_decoded + 1;
        st.page_first <- -1
      end
    done;
    let ps = c.ps in
    Fixup.load_page ps base ~page (if deferred then Fixup.Fix c.chain else Fixup.Read);
    let n = Fixup.entries ps in
    let tm = ps.Fixup.timing in
    (* Each decoding subscriber's restriction over the whole page, on the
       walked records: only the columns it references are read. *)
    let t0 = Trace.now_us () in
    Array.iteri
      (fun i st ->
        match decisions.(i) with
        | Decode ->
          if n > Bytes.length st.qualified then st.qualified <- Bytes.create (2 * n);
          Decode_arena.filter ps.Fixup.arena st.sub.sub_restrict st.qualified
        | _ -> ())
      states;
    let t1 = Trace.now_us () in
    let null = Annotations.null in
    let live = ref 0 in
    let first_live = ref Addr.zero in
    let page_last_live = ref Addr.zero in
    let first_prev = ref Addr.zero in
    let max_ts = ref Clock.never in
    let any_null = ref false in
    (* Per entry, in address order, on the corrected annotations: the
       Figure 3 state machine of each decoding subscriber, or a full
       subscriber's [Upsert] per qualified entry.  A sent entry's
       projected columns are copied as bytes; nothing is decoded. *)
    for k = 0 to n - 1 do
      let addr = ps.Fixup.addrs.(k) and prev = ps.Fixup.prevs.(k) and ts = ps.Fixup.tss.(k) in
      if !live = 0 then begin
        first_live := addr;
        first_prev := if prev = null then Addr.zero else prev
      end;
      incr live;
      page_last_live := addr;
      if ts = null || prev = null then any_null := true;
      if ts > !max_ts then max_ts := ts;
      for i = 0 to Array.length states - 1 do
        match decisions.(i) with
        | Decode ->
          let st = states.(i) in
          st.scanned <- st.scanned + 1;
          (* A NULL timestamp cannot survive fix-up; in eager mode it
             would mean corrupted annotations — treat as changed. *)
          let changed = ts = null || ts > st.sub.sub_snaptime in
          if Bytes.get st.qualified k <> '\000' then begin
            let first = st.page_first < 0 in
            if first then st.page_first <- k;
            let sent = st.sub.sub_full || changed || st.deletion in
            (* A cache keeps the page's first qualifying row, the sent
               one when there is one. *)
            if sent || (first && st.sub.sub_prune <> None) then begin
              let row = Fixup.row ps k st.sub.sub_project in
              if first then st.page_first_row <- row;
              if st.sub.sub_full then push st (Refresh_msg.Upsert { addr; row })
              else if sent then
                push st (Refresh_msg.Entry { addr; prev_qual = st.last_qual; row })
            end;
            st.last_qual <- addr;
            st.deletion <- false
          end
          else if changed then
            (* "Updated entry ==> may have qualified before update." *)
            st.deletion <- true
        | _ -> ()
      done
    done;
    let t2 = Trace.now_us () in
    tm.Fixup.filter_us <- tm.Fixup.filter_us +. (t1 -. t0);
    tm.Fixup.emit_us <- tm.Fixup.emit_us +. (t2 -. t1);
    if not !any_null then begin
      let token =
        Base_table.record_page_summary base ~page ~live:!live ~first_live:!first_live
          ~last_live:!page_last_live
          ~first_prev:(if !live = 0 then Addr.zero else !first_prev)
          ~max_ts:!max_ts
      in
      Array.iteri
        (fun i st ->
          match (decisions.(i), st.sub.sub_prune) with
          | Decode, Some cache ->
            if st.page_first < 0 then
              Prune_cache.set cache page ~token ~first_qual:Addr.zero ~last_qual:Addr.zero
                ~first_row:Prune_cache.no_row
            else
              Prune_cache.set cache page ~token ~first_qual:ps.Fixup.addrs.(st.page_first)
                ~last_qual:st.last_qual ~first_row:st.page_first_row
          | _ -> ())
        states
    end
    else
      Array.iteri
        (fun i st ->
          match (decisions.(i), st.sub.sub_prune) with
          | Decode, Some cache -> Prune_cache.remove cache page
          | _ -> ())
        states
  end;
  Array.iter flush states

let scan_to c ~last_page =
  let upto = min last_page c.pages in
  while c.next_page <= upto do
    scan_page c c.next_page;
    c.next_page <- c.next_page + 1
  done

(* "Handle deletions at end of BaseTable": unconditional in the paper;
   optionally suppressed when the snapshot provably holds nothing above
   LastQual.  A full subscriber's stream has no tail: its [Clear] already
   emptied the snapshot. *)
let tail_suppressed st =
  match st.sub.sub_tail_suppression with
  | Some high_water -> (not st.sub.sub_full) && high_water <= st.last_qual
  | None -> false

let emit_tails c =
  if not c.tails_sent then begin
    c.tails_sent <- true;
    Array.iter
      (fun st ->
        if not (st.sub.sub_full || tail_suppressed st) then
          send st (Refresh_msg.Tail { last_qual = st.last_qual }))
      c.states
  end

let finish c =
  scan_to c ~last_page:c.pages;
  emit_tails c;
  let n_subs = Array.length c.states in
  let sub_reports =
    Array.mapi
      (fun i st ->
        send st (Refresh_msg.Snaptime st.new_snaptime);
        {
          new_snaptime = st.new_snaptime;
          entries_scanned = st.scanned;
          entries_skipped = st.skipped;
          pages_decoded = st.st_pages_decoded;
          pages_skipped = st.st_pages_skipped;
          (* The group's fix-up writes are charged to the first subscriber:
             in the equivalent solo sequence the first refresher's pass is
             the one that restores every disturbed annotation, and the rest
             find nothing left to write. *)
          fixup_writes = (if i = 0 then c.ps.Fixup.writes else 0);
          fixup_bytes = (if i = 0 then c.ps.Fixup.bytes else 0);
          data_messages = st.data_messages;
          tail_suppressed = tail_suppressed st;
        })
      c.states
  in
  let per_sub_decodes =
    Array.fold_left (fun acc st -> acc + st.st_pages_decoded) 0 c.states
  in
  let decodes_saved = per_sub_decodes - c.pages_decoded in
  Metrics.add m_entries_decoded
    (Array.fold_left (fun acc st -> acc + st.scanned) 0 c.states);
  Metrics.add m_entries_pruned
    (Array.fold_left (fun acc st -> acc + st.skipped) 0 c.states);
  Metrics.add m_pages_decoded c.pages_decoded;
  Metrics.add m_pages_skipped (c.pages - c.pages_decoded);
  Metrics.add m_fixup_writes c.ps.Fixup.writes;
  if n_subs > 1 then begin
    Metrics.incr m_group_scans;
    Metrics.add m_group_subscribers n_subs;
    Metrics.add m_group_decodes_saved decodes_saved
  end;
  {
    group_pages = c.pages;
    group_pages_decoded = c.pages_decoded;
    group_decodes_saved = decodes_saved;
    group_fixup_writes = c.ps.Fixup.writes;
    sub_reports;
  }

let refresh_group ~base subs = finish (start ~base subs)

(* The solo scans are groups of one: same code path, so the "group stream
   = solo stream" invariant is structural for the degenerate case and the
   two can never drift apart. *)
let solo ~base sub = (refresh_group ~base [| sub |]).sub_reports.(0)

let refresh ?(tail_suppression = None) ?prune ~base ~snaptime ~restrict ?project ~xmit () =
  solo ~base
    { sub_full = false; sub_snaptime = snaptime; sub_restrict = restrict; sub_project = project;
      sub_tail_suppression = tail_suppression; sub_prune = prune; sub_xmit = each xmit }

let refresh_full ?prune ~base ~restrict ?project ~xmit () =
  solo ~base
    { sub_full = true; sub_snaptime = Clock.never; sub_restrict = restrict; sub_project = project;
      sub_tail_suppression = None; sub_prune = prune; sub_xmit = each xmit }
