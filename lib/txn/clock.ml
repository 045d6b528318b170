type ts = int

type t = { mutable current : ts }

let never = 0

let create ?(start = never) () = { current = start }

let now t = t.current

let tick t =
  t.current <- t.current + 1;
  t.current

let advance_to t ts = if ts > t.current then t.current <- ts
