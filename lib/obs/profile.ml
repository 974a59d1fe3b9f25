module Stats = Cards_util.Stats

type buckets = {
  p_guard : int;
  p_demand : int;
  p_queue : int;
  p_pf_stall : int;
  p_retry : int;
  p_trap : int;
  p_alloc : int;
  p_hidden : int;
}

type ds = {
  mutable hidden : int;
  lat : Stats.t;
}

type t = {
  attr : Attribution.t;
  per : (int, ds) Hashtbl.t;
  mutable p_compute : int;
}

let register t h =
  match Hashtbl.find_opt t.per h with
  | Some d -> d
  | None ->
    let d = { hidden = 0; lat = Stats.create () } in
    Hashtbl.replace t.per h d;
    d

let create attr =
  let t = { attr; per = Hashtbl.create 16; p_compute = 0 } in
  ignore (register t 0);
  t

(* The ledger's causes, grouped into the profiler's coarser buckets. *)
let buckets t h =
  let hidden =
    match Hashtbl.find_opt t.per h with Some d -> d.hidden | None -> 0
  in
  List.fold_left
    (fun b (cause, c) ->
      match (cause : Attribution.cause) with
      | Guard_exec -> { b with p_guard = b.p_guard + c }
      | Proto | Wire -> { b with p_demand = b.p_demand + c }
      | Queue _ -> { b with p_queue = b.p_queue + c }
      | Pf_wait -> { b with p_pf_stall = b.p_pf_stall + c }
      | Retry -> { b with p_retry = b.p_retry + c }
      | Trap -> { b with p_trap = b.p_trap + c }
      | Bookkeeping -> { b with p_alloc = b.p_alloc + c })
    { p_guard = 0; p_demand = 0; p_queue = 0; p_pf_stall = 0; p_retry = 0;
      p_trap = 0; p_alloc = 0; p_hidden = hidden }
    (Attribution.ds_cause_totals t.attr h)

let add_compute t c = t.p_compute <- t.p_compute + c

let compute t = t.p_compute

let wall b =
  b.p_guard + b.p_demand + b.p_queue + b.p_pf_stall + b.p_retry + b.p_trap
  + b.p_alloc

let handles t =
  List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) t.per [])

(* Summed over registered handles only: a ledger charge to a handle the
   profiler never saw shows up as a gap, not as attributed time. *)
let attributed t =
  List.fold_left (fun acc h -> acc + wall (buckets t h)) t.p_compute
    (handles t)

let record_latency d c = Stats.add_int d.lat c

let add_hidden d c = d.hidden <- d.hidden + c

let latency t h =
  match Hashtbl.find_opt t.per h with
  | Some d -> d.lat
  | None -> Stats.create ()

(* The all-structure latency distribution: bucket-wise merge, no
   sample lists anywhere (Stats is a bounded histogram). *)
let merged_latency t =
  Hashtbl.fold (fun _ d acc -> Stats.merge acc d.lat) t.per (Stats.create ())

let merged_hist t = Stats.log2_counts (merged_latency t)
