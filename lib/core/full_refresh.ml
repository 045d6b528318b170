open Snapdiff_storage
open Snapdiff_txn
module Trace = Snapdiff_obs.Trace

type report = {
  new_snaptime : Clock.ts;
  entries_scanned : int;
  data_messages : int;
}

type cursor = {
  base : Base_table.t;
  restrict : Snapdiff_expr.Eval.record_pred;
  project : int array option;
  xmit : Refresh_msg.t -> unit;
  now : Clock.ts;
  pages : int;
  ps : Fixup.page_scan;  (* the pass's one page scratch, reused page to page *)
  mutable qualified : Bytes.t;  (* the page's restriction bitmap *)
  mutable next_page : int;
  mutable scanned : int;
  mutable data : int;
}

let start ~base ~restrict ?project ~xmit () =
  let now = Clock.tick (Base_table.clock base) in
  xmit Refresh_msg.Clear;
  { base; restrict; project; xmit; now; pages = Base_table.data_pages base;
    ps = Fixup.page_scan (); qualified = Bytes.create 64; next_page = 1; scanned = 0; data = 0 }

let pages c = c.pages

let timing c = c.ps.Fixup.timing

(* Per page: load and walk (no annotations read), the restriction over
   the page into a bitmap, then the qualified rows copied straight into
   their messages; the messages are sent once the page's phases are
   timed, so no phase includes transmit time. *)
let scan_to c ~last_page =
  let ps = c.ps and tm = timing c in
  for page = c.next_page to min last_page c.pages do
    Fixup.load_page ps c.base ~page Fixup.Skip;
    let n = Fixup.entries ps in
    c.scanned <- c.scanned + n;
    if n > Bytes.length c.qualified then c.qualified <- Bytes.create (2 * n);
    let t0 = Trace.now_us () in
    Decode_arena.filter ps.Fixup.arena c.restrict c.qualified;
    let t1 = Trace.now_us () in
    let out = ref [] in
    for k = n - 1 downto 0 do
      if Bytes.get c.qualified k <> '\000' then begin
        let row = Fixup.row ps k c.project in
        out := Refresh_msg.Upsert { addr = ps.Fixup.addrs.(k); row } :: !out
      end
    done;
    let t2 = Trace.now_us () in
    tm.Fixup.filter_us <- tm.Fixup.filter_us +. (t1 -. t0);
    tm.Fixup.emit_us <- tm.Fixup.emit_us +. (t2 -. t1);
    List.iter
      (fun m ->
        c.data <- c.data + 1;
        c.xmit m)
      !out
  done;
  c.next_page <- max c.next_page (min last_page c.pages + 1)

let finish c =
  scan_to c ~last_page:c.pages;
  c.xmit (Refresh_msg.Snaptime c.now);
  { new_snaptime = c.now; entries_scanned = c.scanned; data_messages = c.data }

let refresh ~base ~restrict ?project ~xmit () = finish (start ~base ~restrict ?project ~xmit ())
