exception Bad_page of int

type impl =
  | Mem of { mutable pages : bytes array; mutable count : int }
  | File of { fd : Unix.file_descr; mutable count : int }

type t = {
  page_size : int;
  mutable impl : impl;
  mutable writes : int;  (* page writebacks, whole-page or ranged *)
  mutable range_writes : int;  (* individual sub-page range writes *)
  mutable written_bytes : int;
  mutable closed : bool;
}

let magic = "SNAPDIFF"
let superblock_size = 16

let page_size t = t.page_size

let page_count t =
  match t.impl with Mem m -> m.count | File f -> f.count

let check_open t = if t.closed then failwith "Page_store: closed"

let check_page t n =
  if n < 0 || n >= page_count t then raise (Bad_page n)

let file_offset t n = superblock_size + (n * t.page_size)

let really_pread fd buf off =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let len = Bytes.length buf in
  let rec go pos =
    if pos < len then begin
      let k = Unix.read fd buf pos (len - pos) in
      if k = 0 then failwith "Page_store: short read";
      go (pos + k)
    end
  in
  go 0

(* Write bytes [\[pos, pos + len)] of [buf] at file offset [off]. *)
let really_pwrite_sub fd buf ~pos ~len off =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let stop = pos + len in
  let rec go pos =
    if pos < stop then begin
      let k = Unix.write fd buf pos (stop - pos) in
      go (pos + k)
    end
  in
  go pos

let really_pwrite fd buf off = really_pwrite_sub fd buf ~pos:0 ~len:(Bytes.length buf) off

let read_into t n buf =
  check_open t;
  check_page t n;
  if Bytes.length buf <> t.page_size then
    invalid_arg "Page_store.read_into: wrong page size";
  match t.impl with
  | Mem m -> Bytes.blit m.pages.(n) 0 buf 0 t.page_size
  | File f -> really_pread f.fd buf (file_offset t n)

let read t n =
  let buf = Bytes.create t.page_size in
  read_into t n buf;
  buf

let write t n page =
  check_open t;
  check_page t n;
  if Bytes.length page <> t.page_size then
    invalid_arg "Page_store.write: wrong page size";
  t.writes <- t.writes + 1;
  t.written_bytes <- t.written_bytes + t.page_size;
  match t.impl with
  | Mem m -> Bytes.blit page 0 m.pages.(n) 0 t.page_size
  | File f -> really_pwrite f.fd page (file_offset t n)

let write_ranges t n page ranges =
  check_open t;
  check_page t n;
  if Bytes.length page <> t.page_size then
    invalid_arg "Page_store.write_range: wrong page size";
  List.iter
    (fun (off, len) ->
      if off < 0 || len < 0 || off + len > t.page_size then
        invalid_arg "Page_store.write_range: range out of bounds")
    ranges;
  match List.filter (fun (_, len) -> len > 0) ranges with
  | [] -> ()
  | ranges ->
    (* One page writeback however many sub-ranges carry it, so
       [writes_performed] keeps its page-write meaning and stays
       comparable across whole-page and sub-page configurations;
       [range_writes_performed] counts the individual range writes. *)
    t.writes <- t.writes + 1;
    t.range_writes <- t.range_writes + List.length ranges;
    List.iter
      (fun (off, len) ->
        t.written_bytes <- t.written_bytes + len;
        match t.impl with
        | Mem m -> Bytes.blit page off m.pages.(n) off len
        | File f -> really_pwrite_sub f.fd page ~pos:off ~len (file_offset t n + off))
      ranges

let write_range t n page ~off ~len = write_ranges t n page [ (off, len) ]

let allocate t =
  check_open t;
  match t.impl with
  | Mem m ->
    if m.count = Array.length m.pages then begin
      let bigger = Array.make (max 8 (2 * Array.length m.pages)) Bytes.empty in
      Array.blit m.pages 0 bigger 0 m.count;
      m.pages <- bigger
    end;
    m.pages.(m.count) <- Bytes.make t.page_size '\000';
    m.count <- m.count + 1;
    m.count - 1
  | File f ->
    let n = f.count in
    really_pwrite f.fd (Bytes.make t.page_size '\000') (file_offset t n);
    f.count <- n + 1;
    n

let sync t =
  check_open t;
  match t.impl with Mem _ -> () | File f -> Unix.fsync f.fd

let close t =
  if not t.closed then begin
    (match t.impl with Mem _ -> () | File f -> Unix.close f.fd);
    t.closed <- true
  end

let writes_performed t = t.writes
let range_writes_performed t = t.range_writes
let bytes_written t = t.written_bytes

let in_memory ?(page_size = 4096) () =
  if page_size < Page.min_page_size || page_size > Page.max_page_size then
    invalid_arg "Page_store.in_memory: bad page size";
  {
    page_size;
    impl = Mem { pages = Array.make 8 Bytes.empty; count = 0 };
    writes = 0;
    range_writes = 0;
    written_bytes = 0;
    closed = false;
  }

let u32_of_bytes b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let bytes_of_u32 v =
  Bytes.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let open_file ?page_size path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  if size = 0 then begin
    let ps = Option.value page_size ~default:4096 in
    if ps < Page.min_page_size || ps > Page.max_page_size then begin
      Unix.close fd;
      invalid_arg "Page_store.open_file: bad page size"
    end;
    let sb = Bytes.make superblock_size '\000' in
    Bytes.blit_string magic 0 sb 0 8;
    Bytes.blit (bytes_of_u32 ps) 0 sb 8 4;
    really_pwrite fd sb 0;
    { page_size = ps; impl = File { fd; count = 0 }; writes = 0;
      range_writes = 0; written_bytes = 0; closed = false }
  end
  else begin
    if size < superblock_size then begin
      Unix.close fd;
      failwith "Page_store.open_file: truncated superblock"
    end;
    let sb = Bytes.create superblock_size in
    really_pread fd sb 0;
    if Bytes.sub_string sb 0 8 <> magic then begin
      Unix.close fd;
      failwith "Page_store.open_file: bad magic"
    end;
    let ps = u32_of_bytes sb 8 in
    (match page_size with
    | Some requested when requested <> ps ->
      Unix.close fd;
      failwith "Page_store.open_file: page size mismatch"
    | _ -> ());
    let data = size - superblock_size in
    if data mod ps <> 0 then begin
      Unix.close fd;
      failwith "Page_store.open_file: file size not page-aligned"
    end;
    { page_size = ps; impl = File { fd; count = data / ps }; writes = 0;
      range_writes = 0; written_bytes = 0; closed = false }
  end
