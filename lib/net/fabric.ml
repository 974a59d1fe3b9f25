module Rng = Cards_util.Rng

type fault_kind = Transient | Late | Duplicate

let fault_kind_name = function
  | Transient -> "transient"
  | Late -> "late"
  | Duplicate -> "duplicate"

type fault_config = {
  fault_rate : float;
  fault_seed : int;
  fault_kinds : fault_kind list;
}

let no_faults =
  { fault_rate = 0.0; fault_seed = 1; fault_kinds = [ Transient; Late; Duplicate ] }

type config = {
  proto_cycles : int;
  bytes_per_cycle : float;
  qp_count : int;
  faults : fault_config;
}

(* 25 Gb/s / 8 bits / 2.4 GHz = 1.302 bytes per cycle. *)
let link_bytes_per_cycle = 25.0e9 /. 8.0 /. 2.4e9

(* 59 K total - 4096 B / 1.302 B/c (≈ 3146) ≈ 55.8 K protocol cycles. *)
let default_config =
  { proto_cycles = 55_800; bytes_per_cycle = link_bytes_per_cycle;
    qp_count = 1; faults = no_faults }

(* TrackFM's swap-in path is leaner (no per-DS bookkeeping):
   46 K - 3146 ≈ 42.8 K.  It is also per-object and single-queue — the
   leaner-but-unbatched contrast Fig. 8 depends on. *)
let trackfm_config =
  { proto_cycles = 42_800; bytes_per_cycle = link_bytes_per_cycle;
    qp_count = 1; faults = no_faults }

type stats = {
  fetches : int;
  fetched_bytes : int;
  batches : int;
  batched_objects : int;
  writebacks : int;
  written_bytes : int;
  wb_batches : int;
  queue_in_cycles : int;
  queue_out_cycles : int;
  qp_queue_cycles : int array;
  faults_transient : int;
  faults_late : int;
  faults_dup : int;
  failed_fetches : int;
  reliable_fetches : int;
  wb_faults : int;
}

type scale = { s_proto : float; s_wire : float }

let unit_scale = { s_proto = 1.0; s_wire = 1.0 }

(* Factor 1.0 short-circuits to the untouched integer: a unit-scaled
   call must be bit-identical to an unscaled one (the whatif identity
   scenario re-executes the baseline through this path and asserts
   equality to the cycle).  Inlined, so the factor read from a [scale]
   is never boxed to be passed. *)
let[@inline] scale_cycles f c =
  if f = 1.0 || c = 0 then c
  else max 0 (int_of_float ((float_of_int c *. f) +. 0.5))

(* A request's outcome is written into the fabric's own two records
   and handed back inside two preallocated results, so a fetch
   allocates nothing; the caller reads it before the next request. *)
type transfer = {
  mutable t_start : int;
  mutable t_queued : int;
  mutable t_complete : int;
  mutable t_qp : int;
  mutable t_proto : int;
  mutable t_ser : int;
  mutable t_fault : fault_kind option;
}

type failure = {
  mutable f_start : int;
  mutable f_fail : int;
  mutable f_qp : int;
}

(* One record per wire-level request, emitted to the (optional) port
   observer with the FINAL times — a Late or Duplicate fault extends
   the completion before the event is emitted, so an observer never
   sees a provisional timestamp.  [pe_issue] is the caller's [now];
   the per-direction monotonicity guards above make the emitted stream
   nondecreasing in [pe_issue] per direction by construction, which is
   what lets the parallel serving engine merge per-tenant streams with
   a conservative virtual-time barrier. *)
type port_event = {
  pe_dir : [ `In | `Out ];
  pe_issue : int;
  pe_start : int;
  pe_complete : int;
  pe_qp : int;       (* -1 for the outbound direction *)
  pe_count : int;    (* objects carried (batch size; 1 otherwise) *)
  pe_bytes : int;
  pe_ok : bool;      (* false: transient NACK, nothing landed *)
}

type t = {
  cfg : config;
  rng : Rng.t;
  mutable fault_rate : float;     (* live rate; starts at cfg.faults *)
  in_busy_until : int array;      (* one inbound queue pair per slot *)
  qp_queue_cycles : int array;
  mutable out_busy_until : int;
  mutable last_in_now : int;      (* monotonicity guards per direction *)
  mutable last_out_now : int;
  mutable port : (port_event -> unit) option;
  tr : transfer;                  (* the last request's outcome ... *)
  ok : (transfer, failure) result;    (* ... as [Ok tr] *)
  fl : failure;
  err : (transfer, failure) result;   (* [Error fl] *)
  mutable fetches : int;
  mutable fetched_bytes : int;
  mutable batches : int;
  mutable batched_objects : int;
  mutable writebacks : int;
  mutable written_bytes : int;
  mutable wb_batches : int;
  mutable queue_in_cycles : int;
  mutable queue_out_cycles : int;
  mutable faults_transient : int;
  mutable faults_late : int;
  mutable faults_dup : int;
  mutable failed_fetches : int;
  mutable reliable_fetches : int;
  mutable wb_faults : int;
}

let create cfg =
  if cfg.qp_count < 1 then
    invalid_arg "Fabric.create: qp_count must be at least 1";
  if cfg.faults.fault_rate < 0.0 || cfg.faults.fault_rate > 1.0 then
    invalid_arg "Fabric.create: fault_rate must be within [0, 1]";
  let tr =
    { t_start = 0; t_queued = 0; t_complete = 0; t_qp = 0; t_proto = 0;
      t_ser = 0; t_fault = None }
  and fl = { f_start = 0; f_fail = 0; f_qp = 0 } in
  { cfg;
    rng = Rng.create cfg.faults.fault_seed;
    fault_rate = cfg.faults.fault_rate;
    in_busy_until = Array.make cfg.qp_count 0;
    qp_queue_cycles = Array.make cfg.qp_count 0;
    out_busy_until = 0;
    last_in_now = 0; last_out_now = 0;
    port = None;
    tr; ok = Ok tr; fl; err = Error fl;
    fetches = 0; fetched_bytes = 0; batches = 0; batched_objects = 0;
    writebacks = 0; written_bytes = 0; wb_batches = 0;
    queue_in_cycles = 0; queue_out_cycles = 0;
    faults_transient = 0; faults_late = 0; faults_dup = 0;
    failed_fetches = 0; reliable_fetches = 0; wb_faults = 0 }

let set_port t p = t.port <- p

(* Port events are built only when an observer is installed. *)
let emit_transfer t ~now ~count ~bytes =
  match t.port with
  | None -> ()
  | Some f ->
    let tr = t.tr in
    f { pe_dir = `In; pe_issue = now; pe_start = tr.t_start;
        pe_complete = tr.t_complete; pe_qp = tr.t_qp;
        pe_count = count; pe_bytes = bytes; pe_ok = true }

let emit_failure t ~now ~count ~bytes =
  match t.port with
  | None -> ()
  | Some f ->
    let fl = t.fl in
    f { pe_dir = `In; pe_issue = now; pe_start = fl.f_start;
        pe_complete = fl.f_fail; pe_qp = fl.f_qp;
        pe_count = count; pe_bytes = bytes; pe_ok = false }

let set_fault_rate t rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Fabric.set_fault_rate: rate must be within [0, 1]";
  t.fault_rate <- rate

let faults_configured t = t.cfg.faults.fault_rate > 0.0

(* Retried transfers re-enter the fabric at a later [now] than the
   attempt they replace; a caller that rewinds the clock between calls
   would instead let a transfer start before the queue state it
   observes existed, silently corrupting busy-until accounting.  Fail
   loudly instead. *)
let check_in_now t now =
  if now < t.last_in_now then
    invalid_arg
      (Printf.sprintf "Fabric: inbound now moved backwards (%d < %d)" now
         t.last_in_now);
  t.last_in_now <- now

let check_out_now t now =
  if now < t.last_out_now then
    invalid_arg
      (Printf.sprintf "Fabric: outbound now moved backwards (%d < %d)" now
         t.last_out_now);
  t.last_out_now <- now

(* One decision per transfer attempt, drawn from the fabric's own
   seeded PRNG: the schedule is a pure function of the seed and the
   attempt sequence, so the whole simulation stays deterministic.  At
   rate 0 the PRNG is never consulted — the fault-free path is
   bit-identical to a fabric without fault injection. *)
let draw_fault t =
  let fc = t.cfg.faults in
  if t.fault_rate <= 0.0 || fc.fault_kinds = [] then None
  else if Rng.float t.rng 1.0 < t.fault_rate then
    Some (List.nth fc.fault_kinds (Rng.int t.rng (List.length fc.fault_kinds)))
  else None

(* Congestion delay for a late completion: 1-3x the protocol cost, so
   some late transfers sit inside a sane timeout budget and some blow
   past it (exercising both the wait-it-out and abandon-and-retry
   paths in the runtime).  The RNG is drawn before scaling so a scaled
   run consumes the exact same fault schedule as the baseline; the
   delay rides in the wire term (t_ser), so it scales with s_wire. *)
let late_extra t ~scale =
  scale_cycles scale.s_wire (t.cfg.proto_cycles * (1 + Rng.int t.rng 3))

let serialization cfg bytes =
  int_of_float (ceil (float_of_int bytes /. cfg.bytes_per_cycle))

let nominal_fetch_cycles t ~bytes = t.cfg.proto_cycles + serialization t.cfg bytes

(* Least-loaded dispatch: the QP that frees up first wins; ties go to
   the lowest index so dispatch is deterministic. *)
let pick_qp t =
  let best = ref 0 in
  for i = 1 to Array.length t.in_busy_until - 1 do
    if t.in_busy_until.(i) < t.in_busy_until.(!best) then best := i
  done;
  !best

(* Queue a request issued at [now] on inbound queue pair [qp]; returns
   when the QP picks it up, with the wait charged to the inbound
   queueing counters. *)
let inbound_start t ~now qp =
  check_in_now t now;
  let start = max now t.in_busy_until.(qp) in
  let queued = start - now in
  t.queue_in_cycles <- t.queue_in_cycles + queued;
  t.qp_queue_cycles.(qp) <- t.qp_queue_cycles.(qp) + queued;
  start

let set_transfer t ~start ~now ~complete ~qp ~proto ~ser =
  let tr = t.tr in
  tr.t_start <- start;
  tr.t_queued <- start - now;
  tr.t_complete <- complete;
  tr.t_qp <- qp;
  tr.t_proto <- proto;
  tr.t_ser <- ser;
  tr.t_fault <- None

(* The [_raw] layer does the queueing/accounting but emits no port
   event: the fault-injecting wrappers adjust the completion time
   after the fact (Late/Duplicate) and must emit the final record
   themselves, exactly once. *)
let fetch_raw ~scale t ~now ~bytes =
  let qp = pick_qp t in
  let start = inbound_start t ~now qp in
  let proto = scale_cycles scale.s_proto t.cfg.proto_cycles in
  let ser = scale_cycles scale.s_wire (serialization t.cfg bytes) in
  (* The protocol cost is per-request work (doorbells, completion
     polling, bookkeeping) that occupies the queue pair, not just
     latency: back-to-back requests serialize behind it.  This is what
     batching amortizes. *)
  t.in_busy_until.(qp) <- start + proto + ser;
  t.fetches <- t.fetches + 1;
  t.fetched_bytes <- t.fetched_bytes + bytes;
  set_transfer t ~start ~now ~complete:(start + proto + ser) ~qp ~proto ~ser

(* A transient failure crosses the wire and comes back as a NACK: the
   queue pair is held for the protocol turnaround, nothing lands, and
   the caller decides whether to retry. *)
let transient_failure t ~scale ~now =
  let qp = pick_qp t in
  let start = inbound_start t ~now qp in
  let fail = start + scale_cycles scale.s_proto t.cfg.proto_cycles in
  t.in_busy_until.(qp) <- fail;
  t.faults_transient <- t.faults_transient + 1;
  t.failed_fetches <- t.failed_fetches + 1;
  t.fl.f_start <- start;
  t.fl.f_fail <- fail;
  t.fl.f_qp <- qp

(* A Late or Duplicate fault perturbs a request that did complete
   (fault-free and Transient attempts pass through untouched):
   - Late is congestion: the response crawls, and the queue pair stays
     tied up until the late completion.  The delay rides in [t_ser] so
     [t_queued + t_proto + t_ser = t_complete - now] still holds for
     callers that wait the transfer out.
   - Duplicate: the data lands on time, but a duplicated completion
     occupies the queue pair for another protocol turn — timing-only:
     the caller deduplicates by construction (the object is marked
     resident exactly once).
   Applied in place to the transfer the raw layer just wrote. *)
let perturb t ~scale fault =
  let tr = t.tr in
  match fault with
  | Some Late ->
    let extra = late_extra t ~scale in
    t.faults_late <- t.faults_late + 1;
    t.in_busy_until.(tr.t_qp) <- tr.t_complete + extra;
    tr.t_complete <- tr.t_complete + extra;
    tr.t_ser <- tr.t_ser + extra;
    tr.t_fault <- Some Late
  | Some Duplicate ->
    t.faults_dup <- t.faults_dup + 1;
    t.in_busy_until.(tr.t_qp)
      <- tr.t_complete + scale_cycles scale.s_proto t.cfg.proto_cycles;
    tr.t_fault <- Some Duplicate
  | None | Some Transient -> ()

let fetch_attempt t ~scale ~now ~bytes =
  match draw_fault t with
  | Some Transient ->
    transient_failure t ~scale ~now;
    emit_failure t ~now ~count:1 ~bytes;
    t.err
  | fault ->
    fetch_raw ~scale t ~now ~bytes;
    perturb t ~scale fault;
    emit_transfer t ~now ~count:1 ~bytes;
    t.ok

(* Escalation path after retries are exhausted: a heavyweight reliable
   channel (think RC send with end-to-end acknowledgement instead of
   one-sided reads) that pays the protocol cost twice and never
   faults.  Guarantees forward progress at any fault rate. *)
let fetch_reliable t ~scale ~now ~bytes =
  let qp = pick_qp t in
  let start = inbound_start t ~now qp in
  let ser = scale_cycles scale.s_wire (serialization t.cfg bytes) in
  let proto = 2 * scale_cycles scale.s_proto t.cfg.proto_cycles in
  t.in_busy_until.(qp) <- start + proto + ser;
  t.fetches <- t.fetches + 1;
  t.fetched_bytes <- t.fetched_bytes + bytes;
  t.reliable_fetches <- t.reliable_fetches + 1;
  set_transfer t ~start ~now ~complete:(start + proto + ser) ~qp ~proto ~ser;
  emit_transfer t ~now ~count:1 ~bytes;
  t.tr

let fetch_many_raw ~scale t ~now ~sizes ~count:n ~completions =
  let qp = pick_qp t in
  let start = inbound_start t ~now qp in
  let proto = scale_cycles scale.s_proto t.cfg.proto_cycles in
  (* One request/response pair carries the whole batch: the protocol
     overhead is paid once, each object lands as soon as its bytes have
     streamed off the wire behind its predecessors. *)
  let cum = ref 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    cum := !cum + scale_cycles scale.s_wire (serialization t.cfg sizes.(i));
    total := !total + sizes.(i);
    completions.(i) <- start + proto + !cum
  done;
  (* One request, one protocol cost: the QP is held for proto plus the
     batch's summed serialization — per object, a [1/n] share of the
     overhead that dominates small transfers. *)
  t.in_busy_until.(qp) <- start + proto + !cum;
  t.fetches <- t.fetches + n;
  t.fetched_bytes <- t.fetched_bytes + !total;
  t.batches <- t.batches + 1;
  t.batched_objects <- t.batched_objects + n;
  set_transfer t ~start ~now ~complete:completions.(n - 1) ~qp ~proto ~ser:!cum

let fetch_many_attempt t ~scale ~now ~sizes ~count ~completions =
  if count < 1 then invalid_arg "Fabric.fetch_many_attempt: empty batch";
  if count > Array.length sizes || count > Array.length completions then
    invalid_arg "Fabric.fetch_many_attempt: count exceeds the arrays";
  let bytes = ref 0 in
  for i = 0 to count - 1 do
    bytes := !bytes + sizes.(i)
  done;
  let bytes = !bytes in
  match draw_fault t with
  | Some Transient ->
    transient_failure t ~scale ~now;
    emit_failure t ~now ~count ~bytes;
    t.err
  | fault ->
    fetch_many_raw ~scale t ~now ~sizes ~count ~completions;
    let raw_complete = t.tr.t_complete in
    perturb t ~scale fault;
    (* A late response stream delays every object in the batch by the
       same congestion term. *)
    let extra = t.tr.t_complete - raw_complete in
    if extra <> 0 then
      for i = 0 to count - 1 do
        completions.(i) <- completions.(i) + extra
      done;
    emit_transfer t ~now ~count ~bytes;
    t.ok

(* Writeback faults never reach the caller: posted writes are
   asynchronous, so the fabric absorbs the fault by re-posting (or
   draining the duplicate) itself — the outbound direction is simply
   occupied longer, which future evictions queue behind. *)
let wb_fault_extra t =
  match draw_fault t with
  | None -> 0
  | Some k ->
    t.wb_faults <- t.wb_faults + 1;
    (match k with
     | Transient -> t.cfg.proto_cycles (* NACKed posting, re-posted *)
     | Late -> late_extra t ~scale:unit_scale
     | Duplicate -> t.cfg.proto_cycles (* duplicate ack drained *))

(* Writebacks are posted writes: the CPU never waits for them, but the
   request still crosses the wire, so the outbound direction is
   occupied for the full protocol + serialization time — the same cost
   structure as a fetch, just asynchronous (DESIGN.md §fabric). *)
let emit_writeback t ~now ~start ~count ~bytes =
  match t.port with
  | None -> ()
  | Some f ->
    f { pe_dir = `Out; pe_issue = now; pe_start = start;
        pe_complete = t.out_busy_until; pe_qp = -1;
        pe_count = count; pe_bytes = bytes; pe_ok = true }

let writeback t ~now ~bytes =
  check_out_now t now;
  let start = max now t.out_busy_until in
  t.queue_out_cycles <- t.queue_out_cycles + (start - now);
  t.out_busy_until <-
    start + t.cfg.proto_cycles + serialization t.cfg bytes + wb_fault_extra t;
  t.writebacks <- t.writebacks + 1;
  t.written_bytes <- t.written_bytes + bytes;
  emit_writeback t ~now ~start ~count:1 ~bytes

let writeback_many t ~now ~count ~bytes =
  if count < 1 then invalid_arg "Fabric.writeback_many: empty batch";
  check_out_now t now;
  let start = max now t.out_busy_until in
  t.queue_out_cycles <- t.queue_out_cycles + (start - now);
  t.out_busy_until <-
    start + t.cfg.proto_cycles + serialization t.cfg bytes + wb_fault_extra t;
  t.writebacks <- t.writebacks + count;
  t.written_bytes <- t.written_bytes + bytes;
  t.wb_batches <- t.wb_batches + 1;
  emit_writeback t ~now ~start ~count ~bytes

let inbound_busy_until t =
  Array.fold_left min t.in_busy_until.(0) t.in_busy_until

let outbound_busy_until t = t.out_busy_until

let stats t =
  { fetches = t.fetches; fetched_bytes = t.fetched_bytes;
    batches = t.batches; batched_objects = t.batched_objects;
    writebacks = t.writebacks; written_bytes = t.written_bytes;
    wb_batches = t.wb_batches;
    queue_in_cycles = t.queue_in_cycles;
    queue_out_cycles = t.queue_out_cycles;
    qp_queue_cycles = Array.copy t.qp_queue_cycles;
    faults_transient = t.faults_transient;
    faults_late = t.faults_late;
    faults_dup = t.faults_dup;
    failed_fetches = t.failed_fetches;
    reliable_fetches = t.reliable_fetches;
    wb_faults = t.wb_faults }

let add_stats (a : stats) (b : stats) =
  let qp =
    let la = Array.length a.qp_queue_cycles
    and lb = Array.length b.qp_queue_cycles in
    Array.init (max la lb) (fun i ->
        (if i < la then a.qp_queue_cycles.(i) else 0)
        + (if i < lb then b.qp_queue_cycles.(i) else 0))
  in
  { fetches = a.fetches + b.fetches;
    fetched_bytes = a.fetched_bytes + b.fetched_bytes;
    batches = a.batches + b.batches;
    batched_objects = a.batched_objects + b.batched_objects;
    writebacks = a.writebacks + b.writebacks;
    written_bytes = a.written_bytes + b.written_bytes;
    wb_batches = a.wb_batches + b.wb_batches;
    queue_in_cycles = a.queue_in_cycles + b.queue_in_cycles;
    queue_out_cycles = a.queue_out_cycles + b.queue_out_cycles;
    qp_queue_cycles = qp;
    faults_transient = a.faults_transient + b.faults_transient;
    faults_late = a.faults_late + b.faults_late;
    faults_dup = a.faults_dup + b.faults_dup;
    failed_fetches = a.failed_fetches + b.failed_fetches;
    reliable_fetches = a.reliable_fetches + b.reliable_fetches;
    wb_faults = a.wb_faults + b.wb_faults }

let faults_injected (s : stats) =
  s.faults_transient + s.faults_late + s.faults_dup

let reset t =
  Array.fill t.in_busy_until 0 (Array.length t.in_busy_until) 0;
  Array.fill t.qp_queue_cycles 0 (Array.length t.qp_queue_cycles) 0;
  t.out_busy_until <- 0;
  t.last_in_now <- 0;
  t.last_out_now <- 0;
  t.fetches <- 0;
  t.fetched_bytes <- 0;
  t.batches <- 0;
  t.batched_objects <- 0;
  t.writebacks <- 0;
  t.written_bytes <- 0;
  t.wb_batches <- 0;
  t.queue_in_cycles <- 0;
  t.queue_out_cycles <- 0;
  t.faults_transient <- 0;
  t.faults_late <- 0;
  t.faults_dup <- 0;
  t.failed_fetches <- 0;
  t.reliable_fetches <- 0;
  t.wb_faults <- 0
