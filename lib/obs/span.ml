module Vec = Cards_util.Vec

type kind =
  | Demand
  | Escalated
  | Retry
  | Prefetch
  | Batch
  | Pf_settle
  | Pf_hit
  | Trap

type edge = E_trigger | E_member | E_retry | E_satisfy | E_trap

type t = {
  sp_id : int;
  sp_kind : kind;
  sp_parent : int;
  sp_edge : edge option;
  sp_ds : int;
  sp_obj : int;
  sp_fn : string;
  sp_block : int;
  sp_instr : int;
  sp_issued : int;
  sp_start : int;
  sp_complete : int;
  sp_queued : int;
  sp_proto : int;
  sp_wire : int;
  sp_retry : int;
  sp_pf_wait : int;
  sp_trap : int;
  sp_qp : int;
  sp_bytes : int;
  sp_fault : string option;
}

let kind_name = function
  | Demand -> "demand"
  | Escalated -> "escalated"
  | Retry -> "retry"
  | Prefetch -> "prefetch"
  | Batch -> "batch"
  | Pf_settle -> "pf-settle"
  | Pf_hit -> "pf-hit"
  | Trap -> "trap"

let edge_name = function
  | E_trigger -> "trigger"
  | E_member -> "member"
  | E_retry -> "retry-of"
  | E_satisfy -> "satisfies"
  | E_trap -> "trap-fetch"

let stall s =
  s.sp_queued + s.sp_proto + s.sp_wire + s.sp_retry + s.sp_pf_wait + s.sp_trap

type collector = {
  c_rate : float;
  mutable c_acc : float;  (* sampling accumulator, in [0, 1) *)
  mutable c_next : int;  (* next span id *)
  c_spans : t Vec.t;  (* completion order *)
  c_index : int Vec.t;  (* id -> position in c_spans, -1 if absent *)
  c_inflight : (int * int, int) Hashtbl.t;  (* (ds, obj) -> span id *)
}

let create ?(rate = 1.0) () =
  { c_rate = Float.min 1.0 (Float.max 0.0 rate);
    c_acc = 0.0;
    c_next = 0;
    c_spans = Vec.create ();
    c_index = Vec.create ();
    c_inflight = Hashtbl.create 64 }

let sampled c =
  c.c_rate >= 1.0
  ||
  (c.c_acc <- c.c_acc +. c.c_rate;
   c.c_acc >= 1.0
   &&
   (c.c_acc <- c.c_acc -. 1.0;
    true))

let fresh c =
  let id = c.c_next in
  c.c_next <- id + 1;
  id

(* Only allocated ids are indexed: a span claiming any other id is
   stored (so [well_formed] can reject it) but never found. *)
let add c s =
  let pos = Vec.push c.c_spans s in
  if s.sp_id >= 0 && s.sp_id < c.c_next then begin
    Vec.ensure c.c_index (s.sp_id + 1) (-1);
    Vec.set c.c_index s.sp_id pos
  end

let length c = Vec.length c.c_spans

let iter f c = Vec.iteri (fun _ s -> f s) c.c_spans

let id_bound c = c.c_next

let position c id =
  if id >= 0 && id < Vec.length c.c_index then Vec.get c.c_index id else -1

let find c id =
  let pos = position c id in
  if pos >= 0 then Some (Vec.get c.c_spans pos) else None

let iter_by_id f c =
  Vec.iteri (fun _ pos -> if pos >= 0 then f (Vec.get c.c_spans pos)) c.c_index

(* Parents are strictly older ids, so the walk terminates; the guard
   keeps a malformed (self or forward) edge from looping. *)
let chain c s =
  let rec up acc s =
    let acc = s :: acc in
    if s.sp_parent < 0 || s.sp_parent >= s.sp_id then acc
    else match find c s.sp_parent with Some p -> up acc p | None -> acc
  in
  up [] s

let note_inflight c ~ds ~obj ~span = Hashtbl.replace c.c_inflight (ds, obj) span

let take_inflight c ~ds ~obj =
  match Hashtbl.find_opt c.c_inflight (ds, obj) with
  | Some span ->
    Hashtbl.remove c.c_inflight (ds, obj);
    span
  | None -> -1

type totals = {
  tot_queue : int array;
  tot_proto : int;
  tot_wire : int;
  tot_retry : int;
  tot_pf_wait : int;
  tot_trap : int;
}

let cpu_totals c =
  let qp_max =
    let m = ref 0 in
    iter (fun s -> if s.sp_qp > !m then m := s.sp_qp) c;
    !m
  in
  let queue = Array.make (qp_max + 1) 0 in
  let proto = ref 0 and wire = ref 0 in
  let retry = ref 0 and pf_wait = ref 0 and trap = ref 0 in
  iter
    (fun s ->
      match s.sp_kind with
      | Demand | Escalated ->
        if s.sp_qp >= 0 then queue.(s.sp_qp) <- queue.(s.sp_qp) + s.sp_queued;
        proto := !proto + s.sp_proto;
        wire := !wire + s.sp_wire
      | Retry -> retry := !retry + s.sp_retry
      | Pf_settle -> pf_wait := !pf_wait + s.sp_pf_wait
      | Trap -> trap := !trap + s.sp_trap
      | Prefetch | Batch | Pf_hit -> ())
    c;
  { tot_queue = queue;
    tot_proto = !proto;
    tot_wire = !wire;
    tot_retry = !retry;
    tot_pf_wait = !pf_wait;
    tot_trap = !trap }

(* A span whose id is out of range is unindexed, and of two spans
   sharing an id only the later is indexed: either way some position
   is not the one its id maps to. *)
let well_formed c =
  let ok = ref true in
  Vec.iteri
    (fun pos s ->
      if position c s.sp_id <> pos then ok := false;
      if s.sp_parent < -1 || s.sp_parent >= s.sp_id then ok := false;
      match s.sp_edge with
      | Some _ -> if s.sp_parent < 0 then ok := false
      | None -> if s.sp_parent >= 0 then ok := false)
    c.c_spans;
  !ok
