module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace

let m_appends = Metrics.counter Metrics.global "wal.appends"
let m_append_bytes = Metrics.counter Metrics.global "wal.append_bytes"
let m_truncations = Metrics.counter Metrics.global "wal.truncations"
let m_fsyncs = Metrics.counter Metrics.global "wal.fsyncs"
let m_torn_tails = Metrics.counter Metrics.global "wal.torn_tails"
let h_group_batch = Metrics.histogram Metrics.global "wal.group_commit_batch"

type lsn = int

type backend = Memory | File of string

(* On-disk segment format:

   {v
   +----------+-----------+--------------------------------·····--+
   | WALSEG01 | base (i64) | frame | frame | frame | ...           |
   +----------+-----------+--------------------------------·····--+
   v}

   Each frame is [u32 payload length | u32 FNV-1a checksum | payload],
   little-endian, where the payload is exactly one {!Record.encode} image.
   LSNs remain byte offsets into the {e unframed} logical log (the
   in-memory image), so framing overhead never shifts an LSN; they are
   recomputed on {!open_file} by re-accumulating payload lengths. *)

let segment_magic = "WALSEG01"
let segment_header_size = 16
let frame_header_size = 8

type file_state = {
  mutable fd : Unix.file_descr;  (* swapped when truncation renames a fresh segment in *)
  path : string;
  window : int;  (* commits per fsync; 1 = fsync every commit *)
  mutable pending_commits : int;  (* commits written since the last fsync *)
  mutable unsynced : bool;  (* any bytes written since the last fsync *)
  mutable fsync_count : int;  (* real fsyncs issued on this segment *)
  mutable durable_lsn : lsn;  (* end_lsn as of the last fsync *)
}

type t = {
  mutable buf : Buffer.t;
  mutable count : int;
  mutable base : lsn;  (* LSN of the first retained byte *)
  per_table : (string, lsn) Hashtbl.t;  (* table -> LSN of its latest record *)
  file : file_state option;
}

let start_lsn = 0

let default_group_commit_window = 8

let fnv1a s = Snapdiff_storage.Codec.fnv1a (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let really_write fd b =
  let len = Bytes.length b in
  let rec go pos =
    if pos < len then begin
      let k = Unix.write fd b pos (len - pos) in
      go (pos + k)
    end
  in
  go 0

let segment_header base =
  let b = Bytes.make segment_header_size '\000' in
  Bytes.blit_string segment_magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int base);
  b

let frame_of_payload payload =
  let len = String.length payload in
  let b = Bytes.create (frame_header_size + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (fnv1a payload));
  Bytes.blit_string payload 0 b frame_header_size len;
  b

let tmp_path path = path ^ ".tmp"

(* Make a just-renamed segment's directory entry durable.  Some
   filesystems reject fsync on a directory fd; treat that as best-effort
   rather than failing the truncation. *)
let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dirfd ->
    Fun.protect
      ~finally:(fun () -> Unix.close dirfd)
      (fun () -> try Unix.fsync dirfd with Unix.Unix_error _ -> ())

let mark_synced t fs =
  fs.fsync_count <- fs.fsync_count + 1;
  Metrics.incr m_fsyncs;
  if fs.pending_commits > 0 then
    Metrics.observe h_group_batch (float_of_int fs.pending_commits);
  fs.pending_commits <- 0;
  fs.unsynced <- false;
  fs.durable_lsn <- t.base + Buffer.length t.buf

let do_fsync t fs =
  Trace.with_span "wal.fsync" (fun () -> Unix.fsync fs.fd);
  mark_synced t fs

let mk ?file () =
  { buf = Buffer.create 4096; count = 0; base = 0; per_table = Hashtbl.create 8; file }

let create ?(backend = Memory) ?group_commit_window () =
  let window = Option.value group_commit_window ~default:default_group_commit_window in
  if window < 1 then invalid_arg "Wal.create: group_commit_window < 1";
  match backend with
  | Memory -> mk ()
  | File path ->
    (try Sys.remove (tmp_path path) with Sys_error _ -> ());
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    really_write fd (segment_header 0);
    mk
      ~file:
        { fd; path; window; pending_commits = 0; unsynced = true; fsync_count = 0;
          durable_lsn = 0 }
      ()

let backend t = match t.file with None -> Memory | Some fs -> File fs.path

let group_commit_window t = match t.file with None -> 1 | Some fs -> fs.window

let fsyncs t = match t.file with None -> 0 | Some fs -> fs.fsync_count

let durable_end_lsn t =
  match t.file with
  | None -> t.base + Buffer.length t.buf
  | Some fs -> fs.durable_lsn

let sync t =
  match t.file with
  | None -> ()
  | Some fs -> if fs.unsynced || fs.pending_commits > 0 then do_fsync t fs

let close t =
  match t.file with
  | None -> ()
  | Some fs ->
    sync t;
    Unix.close fs.fd

let append t r =
  let at = t.base + Buffer.length t.buf in
  let start = Buffer.length t.buf in
  Record.encode t.buf r;
  t.count <- t.count + 1;
  (match Record.table_of r with
  | Some table -> Hashtbl.replace t.per_table table at
  | None -> ());
  (match t.file with
  | None -> ()
  | Some fs ->
    let payload = Buffer.sub t.buf start (Buffer.length t.buf - start) in
    really_write fs.fd (frame_of_payload payload);
    fs.unsynced <- true;
    (* Group commit: Commit records share one fsync per [window] commits;
       everything else rides along un-synced until the next window flush
       (or an explicit {!sync}). *)
    (match r with
    | Record.Commit _ ->
      fs.pending_commits <- fs.pending_commits + 1;
      if fs.pending_commits >= fs.window then do_fsync t fs
    | _ -> ()));
  Metrics.incr m_appends;
  Metrics.add m_append_bytes (t.base + Buffer.length t.buf - at);
  at

let last_lsn_for t ~table = Hashtbl.find_opt t.per_table table

let end_lsn t = t.base + Buffer.length t.buf

let oldest_retained t = t.base

let record_count t = t.count

let byte_size t = Buffer.length t.buf

let image t = Buffer.to_bytes t.buf

let read t lsn =
  let b = image t in
  if lsn < t.base || lsn >= t.base + Bytes.length b then failwith "Wal.read: bad LSN";
  let r, off = Record.decode b (lsn - t.base) in
  (r, off + t.base)

let iter_from t lsn f =
  let b = image t in
  let len = Bytes.length b in
  if lsn < t.base || lsn > t.base + len then failwith "Wal.iter_from: bad LSN";
  let rec go off =
    if off < len then begin
      let r, off' = Record.decode b off in
      f (off + t.base) r;
      go off'
    end
  in
  go (lsn - t.base)

(* Rewrite the whole segment from the retained in-memory image: fresh
   header carrying the new base, then one frame per retained record.
   Segment truncation is rare (checkpoint-driven), so a full rewrite is
   acceptable.

   The rewrite must never modify the live segment in place: a crash
   mid-overwrite would leave new frames mixed with stale old bytes, and
   {!open_file}'s torn-tail scan — which truncates at the first bad
   frame — would silently drop previously fsync-durable records above the
   mix point.  Instead the new segment is written to a sibling temp file,
   fsynced, then [rename(2)]d over the old path (the atomic commit point)
   and the directory fsynced: a crash at any instant leaves either the
   complete old segment (plus an ignorable temp file) or the complete new
   one, never a hybrid. *)
let rewrite_file t fs =
  let out = Buffer.create (segment_header_size + Buffer.length t.buf) in
  Buffer.add_bytes out (segment_header t.base);
  let b = image t in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let _, off' = Record.decode b off in
      Buffer.add_bytes out (frame_of_payload (Bytes.sub_string b off (off' - off)));
      go off'
    end
  in
  go 0;
  let tmp = tmp_path fs.path in
  let tmp_fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     really_write tmp_fd (Buffer.to_bytes out);
     Trace.with_span "wal.fsync" (fun () -> Unix.fsync tmp_fd);
     Unix.close tmp_fd
   with e ->
     (try Unix.close tmp_fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp fs.path;
  fsync_dir fs.path;
  (* The old fd still names the now-unlinked old segment: swap in the new
     one, positioned at its end for subsequent appends. *)
  Unix.close fs.fd;
  let fd = Unix.openfile fs.path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  fs.fd <- fd;
  (* The temp-file fsync made everything (pending commits included)
     durable; account for it as this rewrite's one real fsync. *)
  mark_synced t fs

let truncate_before t lsn =
  if lsn < t.base || lsn > end_lsn t then failwith "Wal.truncate_before: bad LSN";
  if lsn > t.base then begin
    let b = image t in
    (* Count the discarded records and verify the boundary by decoding. *)
    let rec skip off dropped =
      if off < lsn - t.base then begin
        let _, off' = Record.decode b off in
        skip off' (dropped + 1)
      end
      else if off = lsn - t.base then dropped
      else failwith "Wal.truncate_before: LSN is not a record boundary"
    in
    let dropped = skip 0 0 in
    let fresh = Buffer.create (max 4096 (Bytes.length b - (lsn - t.base))) in
    Buffer.add_subbytes fresh b (lsn - t.base) (Bytes.length b - (lsn - t.base));
    t.buf <- fresh;
    t.count <- t.count - dropped;
    t.base <- lsn;
    (* Clamp per-table latest-LSN entries that now point below the log:
       [last_lsn_for] must always return a scannable LSN (>= base), and
       clamping to the new base keeps "last_lsn_for < lsn0" a sound
       no-changes test — a clamped entry can only make the quiescence
       fast-path conservatively scan a suffix that contains no records
       for the table, never skip real changes. *)
    Hashtbl.filter_map_inplace
      (fun _ l -> if l < t.base then Some t.base else Some l)
      t.per_table;
    (match t.file with None -> () | Some fs -> rewrite_file t fs);
    Metrics.incr m_truncations
  end

let fold_from t lsn ~init ~f =
  let acc = ref init in
  iter_from t lsn (fun l r -> acc := f !acc l r);
  !acc

let to_list t =
  List.rev (fold_from t t.base ~init:[] ~f:(fun acc l r -> (l, r) :: acc))

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "WALLOG01";
      let base = Bytes.create 8 in
      Bytes.set_int64_le base 0 (Int64.of_int t.base);
      output_bytes oc base;
      output_bytes oc (image t);
      flush oc;
      (* [flush] only drains the userspace buffer; the fsync makes the
         image durable and the metric honest. *)
      Unix.fsync (Unix.descr_of_out_channel oc);
      Metrics.incr m_fsyncs)

let load path =
  let ic = open_in_bin path in
  let b =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if String.length b < 16 || String.sub b 0 8 <> "WALLOG01" then
    failwith "Wal.load: bad log image";
  let base = Int64.to_int (Bytes.get_int64_le (Bytes.of_string b) 8) in
  let b = String.sub b 16 (String.length b - 16) in
  let t = mk () in
  t.base <- base;
  Buffer.add_string t.buf b;
  (* Rebuild the record count and the per-table latest-LSN map by decoding
     the image; this also validates it. *)
  let bb = Buffer.to_bytes t.buf in
  let len = Bytes.length bb in
  let rec go off =
    if off < len then begin
      let r, off' = Record.decode bb off in
      (match Record.table_of r with
      | Some table -> Hashtbl.replace t.per_table table (t.base + off)
      | None -> ());
      t.count <- t.count + 1;
      go off'
    end
  in
  go 0;
  t

let open_file ?group_commit_window path =
  let window = Option.value group_commit_window ~default:default_group_commit_window in
  if window < 1 then invalid_arg "Wal.open_file: group_commit_window < 1";
  (* A leftover temp file is a truncation rewrite that crashed before its
     rename committed: the segment at [path] is still the authoritative
     log, so the temp is discarded, never adopted. *)
  (try Sys.remove (tmp_path path) with Sys_error _ -> ());
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let fs =
    { fd; path; window; pending_commits = 0; unsynced = false; fsync_count = 0;
      durable_lsn = 0 }
  in
  if size < segment_header_size then begin
    (* Nothing durable (a crash before the header landed): start fresh. *)
    Unix.ftruncate fd 0;
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    really_write fd (segment_header 0);
    fs.unsynced <- true;
    if size > 0 then Metrics.incr m_torn_tails;
    mk ~file:fs ()
  end
  else begin
    let img = Bytes.create size in
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    let rec fill pos =
      if pos < size then begin
        let k = Unix.read fd img pos (size - pos) in
        if k = 0 then failwith "Wal.open_file: short read";
        fill (pos + k)
      end
    in
    fill 0;
    if Bytes.sub_string img 0 8 <> segment_magic then begin
      Unix.close fd;
      failwith "Wal.open_file: bad segment magic"
    end;
    let t = mk ~file:fs () in
    t.base <- Int64.to_int (Bytes.get_int64_le img 8);
    (* Decode frames until the first short, corrupt, or undecodable one —
       a torn tail from a crash mid-append — then truncate the file there:
       the valid prefix is exactly the durable log. *)
    let valid_end = ref segment_header_size in
    let torn = ref false in
    let off = ref segment_header_size in
    while (not !torn) && !off + frame_header_size <= size do
      let len = Int32.to_int (Bytes.get_int32_le img !off) in
      let cksum = Int32.to_int (Bytes.get_int32_le img (!off + 4)) land 0xFFFFFFFF in
      if len <= 0 || !off + frame_header_size + len > size then torn := true
      else begin
        let payload = Bytes.sub_string img (!off + frame_header_size) len in
        if fnv1a payload <> cksum then torn := true
        else begin
          match Record.decode (Bytes.of_string payload) 0 with
          | exception Failure _ -> torn := true
          | r, consumed when consumed = len ->
            let at = t.base + Buffer.length t.buf in
            Buffer.add_string t.buf payload;
            t.count <- t.count + 1;
            (match Record.table_of r with
            | Some table -> Hashtbl.replace t.per_table table at
            | None -> ());
            off := !off + frame_header_size + len;
            valid_end := !off
          | _ -> torn := true
        end
      end
    done;
    if !valid_end < size then begin
      Unix.ftruncate fd !valid_end;
      Metrics.incr m_torn_tails
    end;
    ignore (Unix.lseek fd !valid_end Unix.SEEK_SET);
    (* Everything recovered was read back from the file: it is the
       durable horizon until the next append. *)
    fs.durable_lsn <- t.base + Buffer.length t.buf;
    t
  end
