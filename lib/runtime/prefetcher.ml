(* The candidate buffer: one (handle, object) pair per object, in two
   parallel arrays so filling, filtering and sorting it allocate only
   when it outgrows its largest call so far. *)
module Targets = struct
  type t = { mutable ds : int array; mutable obj : int array; mutable len : int }

  let create () = { ds = Array.make 64 0; obj = Array.make 64 0; len = 0 }

  let clear b = b.len <- 0
  let length b = b.len

  let check b i =
    if i < 0 || i >= b.len then
      invalid_arg (Printf.sprintf "Targets: index %d out of range (len %d)" i b.len)

  let ds b i = check b i; b.ds.(i)
  let obj b i = check b i; b.obj.(i)

  let set b i ~ds ~obj =
    check b i;
    b.ds.(i) <- ds;
    b.obj.(i) <- obj

  let push b ~ds ~obj =
    let cap = Array.length b.ds in
    if b.len = cap then begin
      let nd = Array.make (2 * cap) 0 and no = Array.make (2 * cap) 0 in
      Array.blit b.ds 0 nd 0 cap;
      Array.blit b.obj 0 no 0 cap;
      b.ds <- nd;
      b.obj <- no
    end;
    b.ds.(b.len) <- ds;
    b.obj.(b.len) <- obj;
    b.len <- b.len + 1

  let truncate b n = if n < b.len then b.len <- max 0 n

  (* Insertion sort by (handle, object), dropping repeats as they meet
     their equal: the set and order [List.sort_uniq compare] gives.
     Candidate lists are short and mostly ascending already (stride
     runs), so this is close to one pass. *)
  let sort_uniq b =
    let n = b.len in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let d = b.ds.(i) and o = b.obj.(i) in
      let j = ref (!k - 1) in
      while !j >= 0 && (b.ds.(!j) > d || (b.ds.(!j) = d && b.obj.(!j) > o)) do
        decr j
      done;
      if not (!j >= 0 && b.ds.(!j) = d && b.obj.(!j) = o) then begin
        let at = !j + 1 in
        Array.blit b.ds at b.ds (at + 1) (!k - at);
        Array.blit b.obj at b.obj (at + 1) (!k - at);
        b.ds.(at) <- d;
        b.obj.(at) <- o;
        incr k
      end
    done;
    b.len <- !k

  let rev b =
    let i = ref 0 and j = ref (b.len - 1) in
    while !i < !j do
      let d = b.ds.(!i) and o = b.obj.(!i) in
      b.ds.(!i) <- b.ds.(!j);
      b.obj.(!i) <- b.obj.(!j);
      b.ds.(!j) <- d;
      b.obj.(!j) <- o;
      incr i;
      decr j
    done
end

type stride_state = {
  s_depth : int;
  mutable last : int;
  mutable have_last : bool;
  deltas : int array;          (* ring of recent deltas *)
  mutable n_deltas : int;
  mutable next_slot : int;
  mutable locked : int;        (* 0 = unlocked *)
  mutable frontier : int;      (* first object not yet covered by an
                                  emitted run (unit-stride mode only) *)
}

type jump_state = {
  j_jump : int;
  j_depth : int;
  mutable table : int array;      (* obj -> obj seen [jump] steps later;
                                     -1 = no entry.  Object indices are
                                     dense and non-negative, so the map
                                     is an array grown on demand. *)
  ring : int array;               (* last [jump] objects *)
  mutable ring_n : int;
  mutable ring_pos : int;
  mutable since_chase : int;      (* accesses since the last chase *)
}

type kind =
  | Stride of stride_state
  | Greedy of int
  | Jump of jump_state

(* Observability wrapper: every prefetcher counts its invocations and
   emitted targets, so epoch metrics can report per-policy activity
   without the runtime re-deriving it. *)
type t = {
  k : kind;
  mutable calls : int;
  mutable emitted : int;
}

let wrap k = { k; calls = 0; emitted = 0 }

let stride ~depth =
  wrap
    (Stride
       { s_depth = depth; last = 0; have_last = false;
         deltas = Array.make 8 0; n_deltas = 0; next_slot = 0; locked = 0;
         frontier = 0 })

let greedy ~fanout = wrap (Greedy fanout)

let jump ~jump ~depth =
  wrap
    (Jump
       { j_jump = jump; j_depth = depth; table = Array.make 256 (-1);
         ring = Array.make jump 0; ring_n = 0; ring_pos = 0;
         since_chase = 0 })

let of_class cls ~depth =
  match (cls : Static_info.prefetch_class) with
  | No_prefetch -> None
  | Stride -> Some (stride ~depth)
  | Greedy_recursive -> Some (greedy ~fanout:depth)
  | Jump_pointer ->
    (* Jump pointers exist to tolerate latency on linear chains (Luk &
       Mowry): each table hop advances [jump] positions, so chasing
       [4·depth] hops runs far enough ahead of the traversal to cover a
       full remote fetch. *)
    Some (jump ~jump:8 ~depth:(4 * depth))

(* Majority vote over the delta window: the delta held by more than
   half of it, 0 when none is.  Boyer-Moore's vote finds the only
   possible candidate in one pass and a second pass counts it — linear
   in the window, where counting every delta against every other was
   quadratic on every access of a stride structure. *)
let majority_delta st =
  let n = st.n_deltas in
  if n < 4 then 0
  else begin
    let cand = ref 0 and votes = ref 0 in
    for i = 0 to n - 1 do
      let d = st.deltas.(i) in
      if !votes = 0 then begin
        cand := d;
        votes := 1
      end
      else if d = !cand then incr votes
      else decr votes
    done;
    let count = ref 0 in
    for i = 0 to n - 1 do
      if st.deltas.(i) = !cand then incr count
    done;
    if 2 * !count > n then !cand else 0
  end

let jump_find st o = if o < Array.length st.table then st.table.(o) else -1

let jump_record st o next =
  let cap = Array.length st.table in
  if o >= cap then begin
    let nt = Array.make (max (o + 1) (2 * cap)) (-1) in
    Array.blit st.table 0 nt 0 cap;
    st.table <- nt
  end;
  st.table.(o) <- next

let on_access_kind t buf ~obj ~missed ~scan =
  match t with
  | Stride st ->
    if st.have_last then begin
      let d = obj - st.last in
      if d <> 0 then begin
        st.deltas.(st.next_slot) <- d;
        st.next_slot <- (st.next_slot + 1) mod Array.length st.deltas;
        if st.n_deltas < Array.length st.deltas then
          st.n_deltas <- st.n_deltas + 1;
        let was = st.locked in
        st.locked <- majority_delta st;
        if st.locked <> was then st.frontier <- 0
      end;
      if st.locked = 1 then begin
        (* Unit stride: emit the window as contiguous runs with
           hysteresis.  Topping the window up only when the issued
           frontier falls within [depth] of the access point means
           each top-up covers ~[depth] fresh objects — one wire
           request per window chunk instead of one per object. *)
        (* A seek backwards (typically a new pass over the same
           array) strands the frontier beyond anything we would emit
           again; snap it back so the re-traversal prefetches like
           the first pass did. *)
        if st.frontier > obj + (2 * st.s_depth) + 1 then
          st.frontier <- obj + 1;
        if st.frontier - obj <= st.s_depth then begin
          let lo = max st.frontier (obj + 1) in
          let hi = obj + (2 * st.s_depth) in
          st.frontier <- hi + 1;
          for o = lo to hi do
            Targets.push buf ~ds:0 ~obj:o
          done
        end
      end
      else if st.locked <> 0 then
        for i = 1 to st.s_depth do
          let o = obj + (st.locked * i) in
          if o >= 0 then Targets.push buf ~ds:0 ~obj:o
        done
    end;
    st.last <- obj;
    st.have_last <- true
  | Greedy fanout ->
    if missed then begin
      scan obj buf;
      Targets.truncate buf fanout
    end
  | Jump st ->
    if obj < 0 then invalid_arg "Prefetcher.on_access: negative object index";
    (* Record: the object seen [jump] accesses ago now maps to us. *)
    if st.ring_n >= st.j_jump then begin
      jump_record st st.ring.(st.ring_pos) obj;
      (* Chase on a cadence, not every access: re-chasing from every
         position re-emits yesterday's window and nets one fresh
         object per call — a stream of single-object requests each
         paying the full protocol cost.  Chasing every [jump]
         accesses (immediately on a miss, when the window collapsed)
         advances the frontier by ~[jump] objects at a time, which a
         batching fabric carries as one request. *)
      st.since_chase <- st.since_chase + 1;
      if missed || st.since_chase >= st.j_jump then begin
        st.since_chase <- 0;
        (* Fetch ahead through the jump table; emitted farthest hop
           first. *)
        let next = ref (jump_find st obj) and depth = ref st.j_depth in
        while !depth > 0 && !next >= 0 do
          Targets.push buf ~ds:0 ~obj:!next;
          next := jump_find st !next;
          decr depth
        done;
        Targets.rev buf
      end
    end;
    st.ring.(st.ring_pos) <- obj;
    st.ring_pos <- (st.ring_pos + 1) mod st.j_jump;
    if st.ring_n < st.j_jump then st.ring_n <- st.ring_n + 1

let on_access t buf ~obj ~missed ~scan =
  t.calls <- t.calls + 1;
  Targets.clear buf;
  on_access_kind t.k buf ~obj ~missed ~scan;
  t.emitted <- t.emitted + Targets.length buf

let kind_name t =
  match t.k with
  | Stride _ -> "stride"
  | Greedy _ -> "greedy"
  | Jump _ -> "jump"

let calls t = t.calls
let targets_emitted t = t.emitted
