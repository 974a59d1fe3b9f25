(* Two parallel int arrays hold the pairs; [head] indexes the oldest
   and [len] counts the live ones.  The capacity is a power of two so
   the wrap is a mask. *)
type t = {
  mutable fst : int array;
  mutable snd : int array;
  mutable head : int;
  mutable len : int;
}

let create () = { fst = Array.make 16 0; snd = Array.make 16 0; head = 0; len = 0 }

let length r = r.len
let is_empty r = r.len = 0

(* Double the capacity, unrolling the live pairs to the front so a
   wrapped ring keeps its FIFO order. *)
let grow r =
  let cap = Array.length r.fst in
  let mask = cap - 1 in
  let nf = Array.make (2 * cap) 0 and ns = Array.make (2 * cap) 0 in
  for i = 0 to r.len - 1 do
    let j = (r.head + i) land mask in
    nf.(i) <- r.fst.(j);
    ns.(i) <- r.snd.(j)
  done;
  r.fst <- nf;
  r.snd <- ns;
  r.head <- 0

let push r a b =
  if r.len = Array.length r.fst then grow r;
  let j = (r.head + r.len) land (Array.length r.fst - 1) in
  r.fst.(j) <- a;
  r.snd.(j) <- b;
  r.len <- r.len + 1

let check r = if r.len = 0 then invalid_arg "Ring: empty"

let head_fst r = check r; r.fst.(r.head)
let head_snd r = check r; r.snd.(r.head)

let drop r =
  check r;
  r.head <- (r.head + 1) land (Array.length r.fst - 1);
  r.len <- r.len - 1
