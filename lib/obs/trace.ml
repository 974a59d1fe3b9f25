type t = {
  buf : Event.t array;
  cap : int;
  mutable added : int;  (* total events ever offered *)
}

let dummy = Event.make ~cycle:0 ~ds:0 ~obj:0 Event.Epoch_mark

let create ~capacity =
  let cap = max 1 capacity in
  { buf = Array.make cap dummy; cap; added = 0 }

let add t ev =
  t.buf.(t.added mod t.cap) <- ev;
  t.added <- t.added + 1

let length t = min t.added t.cap

let dropped t = max 0 (t.added - t.cap)

let oldest t = if t.added <= t.cap then 0 else t.added mod t.cap

let to_list t = List.init (length t) (fun i -> t.buf.((oldest t + i) mod t.cap))

let iter f t =
  let first = oldest t in
  for i = 0 to length t - 1 do
    f t.buf.((first + i) mod t.cap)
  done
