open Snapdiff_storage
open Snapdiff_txn

type cell = {
  mutable value : Tuple.t option;
  mutable ts : Clock.ts;
}

type t = {
  cells : cell array;  (* index 0 unused; addresses are 1-based *)
  cell_schema : Schema.t;
  clock : Clock.t;
}

let create ~capacity ~schema ~clock () =
  if capacity < 1 then invalid_arg "Dense.create: capacity must be positive";
  {
    cells = Array.init (capacity + 1) (fun _ -> { value = None; ts = Clock.never });
    cell_schema = schema;
    clock;
  }

let capacity t = Array.length t.cells - 1

let schema t = t.cell_schema

let check_addr t addr =
  if addr < 1 || addr > capacity t then invalid_arg "Dense: address out of space"

let set t ~addr tuple =
  check_addr t addr;
  (match Schema.validate_tuple t.cell_schema tuple with
  | Ok () -> ()
  | Error e -> invalid_arg ("Dense.set: " ^ e));
  let c = t.cells.(addr) in
  c.value <- Some tuple;
  c.ts <- Clock.tick t.clock

let remove t ~addr =
  check_addr t addr;
  let c = t.cells.(addr) in
  if c.value <> None then begin
    c.value <- None;
    c.ts <- Clock.tick t.clock
  end

let get t ~addr =
  check_addr t addr;
  t.cells.(addr).value

let entries t =
  let acc = ref [] in
  for addr = capacity t downto 1 do
    match t.cells.(addr).value with
    | Some v -> acc := (addr, v) :: !acc
    | None -> ()
  done;
  !acc

type report = {
  new_snaptime : Clock.ts;
  elements_scanned : int;
  data_messages : int;
}

let refresh t ~snaptime ~restrict ~project ~xmit =
  let now = Clock.tick t.clock in
  let data = ref 0 in
  let send m =
    incr data;
    xmit m
  in
  for addr = 1 to capacity t do
    let c = t.cells.(addr) in
    if c.ts > snaptime then begin
      (* "If the element is empty, or if its value does not satisfy
         SnapRestrict, only the element address and "empty" status are
         transmitted." *)
      match c.value with
      | Some v when restrict v -> send (Refresh_msg.Upsert { addr; row = Row.of_tuple (project v) })
      | Some _ | None -> send (Refresh_msg.Remove { addr })
    end
  done;
  xmit (Refresh_msg.Snaptime now);
  { new_snaptime = now; elements_scanned = capacity t; data_messages = !data }
