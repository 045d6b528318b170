type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 finalizer. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take the top bits; n is far below 2^62 in practice, so modulo bias is
     negligible for simulation purposes, but we still reject to be exact. *)
  let rec go () =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let v = r mod n in
    if r - v > max_int - n then go () else v
  in
  go ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  (* 53 random bits scaled to [0,1). *)
  r /. 9007199254740992.0 *. x

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Partial Fisher-Yates over a lazily-initialized index map: O(k) memory
     via hashtable when k << n, O(n) otherwise. *)
  if k * 4 >= n then begin
    let a = Array.init n (fun i -> i) in
    shuffle t a;
    Array.sub a 0 k
  end else begin
    let swapped = Hashtbl.create (2 * k) in
    let get i = match Hashtbl.find_opt swapped i with Some v -> v | None -> i in
    let out = Array.make k 0 in
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      out.(i) <- get j;
      Hashtbl.replace swapped j (get i)
    done;
    out
  end

(* Harmonic-number cache so repeated zipf draws over the same domain are
   O(1) after the first. *)
let zeta_cache : (int * float, float) Hashtbl.t = Hashtbl.create 16

let zeta n theta =
  match Hashtbl.find_opt zeta_cache (n, theta) with
  | Some z -> z
  | None ->
    let acc = ref 0.0 in
    for i = 1 to n do
      acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    Hashtbl.replace zeta_cache (n, theta) !acc;
    !acc

let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if theta <= 0.0 then int t n
  else begin
    (* YCSB / Gray et al. "Quickly generating billion-record synthetic
       databases" construction. *)
    let zetan = zeta n theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta 2 theta /. zetan))
    in
    let u = float t 1.0 in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 theta then 1
    else
      let v =
        float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.0) alpha
      in
      min (n - 1) (int_of_float v)
  end
