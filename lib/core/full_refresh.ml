open Snapdiff_txn

type report = {
  new_snaptime : Clock.ts;
  entries_scanned : int;
  data_messages : int;
}

type cursor = {
  base : Base_table.t;
  restrict : Snapdiff_storage.Tuple.t -> bool;
  project : Snapdiff_storage.Tuple.t -> Snapdiff_storage.Tuple.t;
  xmit : Refresh_msg.t -> unit;
  now : Clock.ts;
  pages : int;
  arena : Snapdiff_storage.Decode_arena.t;  (* the pass's one decoder, reused page to page *)
  mutable next_page : int;
  mutable scanned : int;
  mutable data : int;
}

let start ~base ~restrict ~project ~xmit =
  let now = Clock.tick (Base_table.clock base) in
  xmit Refresh_msg.Clear;
  { base; restrict; project; xmit; now; pages = Base_table.data_pages base;
    arena = Snapdiff_storage.Decode_arena.create (); next_page = 1; scanned = 0; data = 0 }

let pages c = c.pages

let scan_to c ~last_page =
  for page = c.next_page to min last_page c.pages do
    Base_table.iter_page_stored_arena c.base ~arena:c.arena ~page (fun addr stored ->
        c.scanned <- c.scanned + 1;
        let user = Annotations.user_part stored in
        if c.restrict user then begin
          c.data <- c.data + 1;
          c.xmit (Refresh_msg.Upsert { addr; values = c.project user })
        end)
  done;
  c.next_page <- max c.next_page (min last_page c.pages + 1)

let finish c =
  scan_to c ~last_page:c.pages;
  c.xmit (Refresh_msg.Snaptime c.now);
  { new_snaptime = c.now; entries_scanned = c.scanned; data_messages = c.data }

let refresh ~base ~restrict ~project ~xmit () = finish (start ~base ~restrict ~project ~xmit)
