module Fabric = Cards_net.Fabric
module Vec = Cards_util.Vec
module Ring = Cards_util.Ring
module Targets = Prefetcher.Targets
module Sink = Cards_obs.Sink
module Event = Cards_obs.Event
module Profile = Cards_obs.Profile
module Metrics = Cards_obs.Metrics
module Attribution = Cards_obs.Attribution
module Span = Cards_obs.Span
module Export = Cards_obs.Export
module Reporter = Cards_obs.Reporter

type prefetch_mode = Pf_none | Pf_stride_only | Pf_per_class | Pf_adaptive

type config = {
  policy : Policy.t;
  k : float;
  local_bytes : int;
  remotable_bytes : int;
  cost : Cost.t;
  fabric_config : Fabric.config;
  prefetch_mode : prefetch_mode;
  prefetch_depth : int;
  (* Layout-aware sizing: when set, each structure's window depth is
     derived from this wire budget in bytes and its own object size
     ([budget / obj_size], clamped to [1, 64]), so a factorized hot
     pool earns a proportionally deeper run.  [None] keeps the fixed
     object-count [prefetch_depth] for every structure. *)
  prefetch_bytes : int option;
  batching : bool;
  (* Fault survival (only exercised when the fabric injects faults):
     a demand fetch is retried after a transient failure or a
     timed-out late completion, waiting an exponentially growing
     backoff between attempts; once [retry_max] retries are spent, it
     escalates to the fabric's reliable channel, which cannot fault. *)
  retry_max : int;
  retry_backoff_cycles : int;     (* first backoff; doubles per retry *)
  fetch_timeout_cycles : int;     (* per-attempt budget for late completions *)
  (* What-if execution knobs (Whatif.exec -> config via
     [whatif_config]): scaled fabric costs for inbound fetches,
     globally and per structure (static name, resolved at ds_init), and
     instant prefetch arrival.  All timing-only: outputs are invariant
     under any setting, which is what lets the whatif bench validate
     predictions against re-executed reality. *)
  cost_scale : Fabric.scale;
  ds_cost_scales : (string * Fabric.scale) list;
  pf_instant : bool;              (* prefetches land at issue time *)
  (* Tenant handle namespace (the serving layer, lib/serve): a
     non-empty namespace prefixes every structure name this runtime
     reports ("tenant/name#sid"), so per-tenant stats, attribution
     rows and exports stay collision-free when a serving driver
     aggregates many tenant runtimes into one view.  Handles remain
     runtime-local: a pointer can never cross namespaces because the
     handle bits only resolve against this runtime's table. *)
  namespace : string;
}

let default_config =
  { policy = Policy.Linear;
    k = 1.0;
    local_bytes = 64 * 1024 * 1024;
    remotable_bytes = 8 * 1024 * 1024;
    cost = Cost.cards;
    (* Two inbound QPs: demand faults dispatch least-loaded, so a miss
       is not queued behind a streaming prefetch window. *)
    fabric_config = { Fabric.default_config with qp_count = 2 };
    prefetch_mode = Pf_per_class;
    prefetch_depth = 4;
    prefetch_bytes = None;
    batching = true;
    retry_max = 4;
    retry_backoff_cycles = 4_096;
    (* ~2.7x a nominal 4 KiB fetch: legitimate queueing never trips it
       (the timeout only ever engages on late-faulted completions). *)
    fetch_timeout_cycles = 150_000;
    cost_scale = Fabric.unit_scale;
    ds_cost_scales = [];
    pf_instant = false;
    namespace = "" }

(* Map an executable what-if scenario onto a perturbed copy of [cfg],
   so a prediction made from the span graph can be checked by actually
   re-running the program under the changed parameter.  [None] means
   the scenario has no runtime knob.  Per-structure scales are keyed
   by static name and *prepended*, so a scenario overrides any
   existing entry for the same structure. *)
let whatif_config cfg (exec : Cards_obs.Whatif.exec) =
  match exec with
  | Cards_obs.Whatif.Exec_none -> None
  | Cards_obs.Whatif.Exec_scale { eds; proto; wire } ->
    let scale = { Fabric.s_proto = proto; s_wire = wire } in
    (match eds with
     | None -> Some { cfg with cost_scale = scale }
     | Some name ->
       Some { cfg with ds_cost_scales = (name, scale) :: cfg.ds_cost_scales })
  | Cards_obs.Whatif.Exec_qp n ->
    Some { cfg with fabric_config = { cfg.fabric_config with Fabric.qp_count = n } }
  | Cards_obs.Whatif.Exec_fault_free ->
    Some
      { cfg with
        fabric_config = { cfg.fabric_config with Fabric.faults = Fabric.no_faults } }
  | Cards_obs.Whatif.Exec_instant_prefetch -> Some { cfg with pf_instant = true }

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* Object state bits. *)
let b_resident = 1
let b_dirty = 2
let b_ref = 4
let b_prefetched = 8
let b_inflight = 16
let b_inclock = 32

let segv_penalty = 2_000 (* trap + handler on the unguarded fallback path *)

type ds = {
  handle : int;
  info : Static_info.t;
  obj_shift : int;
  mutable pinned : bool;
      (* Pinned structures allocate *untagged* pointers straight out of
         local memory: the custody check (shr+jz, Fig. 3) falls through
         in 3 cycles, which is how per-access guard elision works.
         When the structure stops fitting, the runtime overrides the
         hint ([pinned] flips to false) and *future* allocations are
         tagged/remotable; already-issued untagged pointers stay local
         forever, as they must. *)
  mutable pinned_bytes : int;     (* untagged bytes issued while pinned *)
  mutable resident_bytes : int;   (* bytes currently in the remotable cache *)
  mutable data : Bytes.t;
  mutable pool_used : int;
  mutable objs : int array;       (* state flags per object *)
  mutable arrivals : int array;   (* completion time while in flight *)
  mutable pf : Prefetcher.t option;
  scan : int -> Targets.t -> unit;
      (* the greedy prefetcher's pointer scan over this structure's
         objects, built once so a miss does not allocate a closure *)
  window_fits : bool;
      (* Throttle: can the remotable cache hold this structure's
         prefetch window twice over?  Prefetching into a cache that
         cannot hold the window alongside the working objects only
         evicts what the demand stream is about to use.  Depends on
         the config and the static object size only. *)
  (* Adaptive prefetch selection (§4.2: "standard prefetching metrics,
     such as accuracy and coverage, are used to evaluate the
     effectiveness of each prefetching policy"): per-epoch counters and
     the list of prefetchers still worth trying. *)
  mutable pf_candidates : Static_info.prefetch_class list;
  pf_order : Static_info.prefetch_class list;
      (* full candidate cycle, for re-exploration after a cool-down *)
  mutable pf_cooldown : int;      (* epochs to stay off before retrying *)
  mutable epoch_accesses : int;
  mutable epoch_issued : int;
  mutable epoch_used : int;
  mutable epoch_faults : int;
  mutable pf_switches : int;
  scale : Fabric.scale;           (* what-if cost scale, fixed at init *)
  st : Rt_stats.ds;
  prof : Profile.ds;              (* fetch-latency histogram *)
}

(* The open stall occasion: the fetch-path phases [stall] has charged
   since the last [close_occasion] (see "stall occasions" below). *)
type occasion = {
  mutable o_first : int;          (* clock before the first charge; -1 = none *)
  mutable o_qp : int;             (* queue pair of the [Queue] charge; -1 = none *)
  mutable o_queued : int;
  mutable o_proto : int;
  mutable o_wire : int;
  mutable o_retry : int;
  mutable o_pf_wait : int;
  mutable o_trap : int;
}

type t = {
  cfg : config;
  pinned_budget : int;
  mutable clock : int;
  fabric : Fabric.t;
  infos : Static_info.t array;
  pref : bool array;              (* per sid: pinned preference *)
  dss : ds Vec.t;                 (* handle h lives at index h-1 *)
  tc : ds option array;           (* direct-mapped handle -> ds translation
                                     cache for the guarded-access fast path.
                                     Never invalidated: handles are stable
                                     and structure records are never
                                     replaced, so an entry can only be
                                     missing, not stale. *)
  mutable unmanaged_data : Bytes.t;
  mutable unmanaged_used : int;
  mutable pinned_used : int;
  mutable remotable_used : int;
  clockq : Ring.t;                (* CLOCK over remotable residents:
                                     (handle, object) pairs *)
  (* Prefetch scratch, reused by every access: the prefetcher's
     candidates (filtered and ordered in place), and the size and
     completion arrays a batched request reads and fills. *)
  pf_buf : Targets.t;
  mutable batch_sizes : int array;
  mutable batch_completions : int array;
  (* The backing bytes of the access [resolve] / [resolve_fast] just
     answered; they return the offset into it. *)
  mutable acc_data : Bytes.t;
  (* Graceful degradation: a sliding window of recent transfer
     outcomes (1 byte each: did the attempt fault?).  When the
     observed fault rate over the window crosses the degrade
     threshold, the prefetch window narrows one step (effective depth
     halves); when the fabric recovers it re-widens.  All dormant —
     zero cost and zero behaviour change — unless the fabric was
     created with a nonzero fault rate ([fault_accounting]). *)
  fault_accounting : bool;
  fw : Bytes.t;                   (* outcome ring, [fault_window] slots *)
  mutable fw_len : int;
  mutable fw_pos : int;
  mutable fw_faults : int;
  mutable degrade : int;          (* 0 = full prefetch width *)
  mutable degrade_cooldown : int; (* outcomes to wait between steps *)
  stats : Rt_stats.t;
  obs : Sink.t;
  prof : Profile.t;               (* a view over [attr] plus compute *)
  attr : Attribution.t;
  (* Current access site (function, block, instruction), stamped by the
     interpreter before each runtime-entering instruction so stall
     charges land on the instruction that paid them.  Direct API users
     (benches, tests) stay on [Attribution.unknown_site]. *)
  mutable site_fn : string;
  mutable site_block : int;
  mutable site_instr : int;
  occ : occasion;
  queue_causes : Attribution.cause array;
      (* [Queue qp] for each inbound queue pair, built once so a demand
         fetch charges its queueing without allocating the cause *)
  (* Causal span layer.  [spans] is the sink's collector, cached so
     every hook is one [match] on an immutable field — [None] means
     spans are off and the hook is a no-op costing one branch, which
     is how tracing off stays the seed fast path.  [cur_span] is the
     id of the last span the current access closed (demand
     completion, settle, or timely hit), the [E_trigger] parent for
     any prefetch the access sets off; -1 between spanned accesses.
     Span recording never touches [clock], so spanning on is
     cycle-identical by construction. *)
  spans : Span.collector option;
  mutable cur_span : int;
}

let log2_exact x =
  let rec go p n = if 1 lsl p >= n then p else go (p + 1) n in
  go 3 x

(* Degradation window: judged over the last [fault_window] transfer
   attempts once at least [fault_window_min] are in hand.  Integer
   ratios keep the policy exact and branch-cheap: degrade one step
   above 1/8 observed faults (12.5%), re-widen below 1/32 (3.1%), and
   wait [degrade_cooldown_len] further outcomes between steps so one
   burst cannot slam the window shut and open again. *)
let fault_window = 64
let fault_window_min = 32
let degrade_max = 6
let degrade_cooldown_len = 32

let tc_slots = 64
let tc_mask = tc_slots - 1

let create ?(obs = Sink.null) cfg infos =
  if cfg.remotable_bytes > cfg.local_bytes then
    fail "remotable region (%d) exceeds local memory (%d)" cfg.remotable_bytes
      cfg.local_bytes;
  Array.iteri
    (fun i (inf : Static_info.t) ->
      if inf.sid <> i then fail "static descriptor %d out of order" inf.sid)
    infos;
  let check_scale what (s : Fabric.scale) =
    let bad f = not (Float.is_finite f) || f < 0.0 in
    if bad s.Fabric.s_proto || bad s.Fabric.s_wire then
      fail "%s: cost scale factors must be finite and non-negative" what
  in
  check_scale "cost_scale" cfg.cost_scale;
  List.iter
    (fun (n, s) -> check_scale ("ds_cost_scales." ^ n) s)
    cfg.ds_cost_scales;
  let attr = Attribution.create () in
  let fabric = Fabric.create cfg.fabric_config in
  { cfg;
    pinned_budget = cfg.local_bytes - cfg.remotable_bytes;
    clock = 0;
    fabric;
    infos;
    pref = Policy.pinned_preference cfg.policy ~infos ~k:cfg.k;
    dss = Vec.create ();
    tc = Array.make tc_slots None;
    unmanaged_data = Bytes.create 4096;
    unmanaged_used = 0;
    pinned_used = 0;
    remotable_used = 0;
    clockq = Ring.create ();
    pf_buf = Targets.create ();
    batch_sizes = Array.make 64 0;
    batch_completions = Array.make 64 0;
    acc_data = Bytes.empty;
    fault_accounting = Fabric.faults_configured fabric;
    fw = Bytes.make fault_window '\000';
    fw_len = 0;
    fw_pos = 0;
    fw_faults = 0;
    degrade = 0;
    degrade_cooldown = 0;
    stats = Rt_stats.create ();
    obs;
    prof = Profile.create attr;
    attr;
    site_fn = Attribution.unknown_site.Attribution.s_fn;
    site_block = Attribution.unknown_site.Attribution.s_block;
    site_instr = Attribution.unknown_site.Attribution.s_instr;
    occ =
      { o_first = -1; o_qp = -1; o_queued = 0; o_proto = 0; o_wire = 0;
        o_retry = 0; o_pf_wait = 0; o_trap = 0 };
    queue_causes =
      Array.init cfg.fabric_config.Fabric.qp_count (fun qp ->
          Attribution.Queue qp);
    spans = Sink.spans obs;
    cur_span = -1 }

let now t = t.clock

(* The clock advances in exactly two places.  [charge] is the public
   interpreter entry point and feeds the profiler's compute counter;
   [stall] is every internal runtime cost, charged to one root cause
   in the attribution ledger at the current access site.  The
   profiler's stall buckets are a view of that ledger, so
   [Profile.attributed t.prof = t.clock] and
   [Attribution.total t.attr = t.clock - Profile.compute t.prof] hold
   at all times (the invariants the tests assert).

   [stall] also adds each fetch-path charge to the open occasion's
   matching phase (Queue -> queued + qp, Proto, Wire, Retry, Pf_wait,
   Trap; Guard_exec and Bookkeeping are per-instruction costs and
   stay out).  [close_occasion] turns that accumulator into the span,
   trace event, latency sample and per-structure counter, so every
   view of a stall reads the cycles the ledger was charged.  None of
   these records feeds back into the clock, so profiled and
   unprofiled runs produce bit-identical cycle counts. *)
let charge t c =
  t.clock <- t.clock + c;
  Profile.add_compute t.prof c

let stall t ~ds cause c =
  t.clock <- t.clock + c;
  Attribution.charge t.attr ~ds ~fn:t.site_fn ~block:t.site_block
    ~instr:t.site_instr cause c;
  match cause with
  | Attribution.Guard_exec | Attribution.Bookkeeping -> ()
  | _ -> (
    let o = t.occ in
    if o.o_first < 0 then o.o_first <- t.clock - c;
    match cause with
    | Attribution.Queue qp ->
      o.o_queued <- o.o_queued + c;
      o.o_qp <- qp
    | Attribution.Proto -> o.o_proto <- o.o_proto + c
    | Attribution.Wire -> o.o_wire <- o.o_wire + c
    | Attribution.Retry -> o.o_retry <- o.o_retry + c
    | Attribution.Pf_wait -> o.o_pf_wait <- o.o_pf_wait + c
    | Attribution.Trap -> o.o_trap <- o.o_trap + c
    | Attribution.Guard_exec | Attribution.Bookkeeping -> ())

let set_site t ~fn ~block ~instr =
  t.site_fn <- fn;
  t.site_block <- block;
  t.site_instr <- instr

let get_ds t handle =
  if handle < 1 || handle > Vec.length t.dss then fail "bad handle %d" handle;
  Vec.get t.dss (handle - 1)

let namespace t = t.cfg.namespace

let ds_name t handle =
  let bare =
    if handle >= 1 && handle <= Vec.length t.dss then
      (Vec.get t.dss (handle - 1)).info.name
    else "(unmanaged)"
  in
  if t.cfg.namespace = "" then bare else t.cfg.namespace ^ "/" ^ bare

(* One-shot post-mortem dump through the sink's reporter; armed by
   [Sink.create ~postmortem:true], consumed by the first trap or
   reliable-channel escalation. *)
let maybe_postmortem t ~reason =
  if Sink.take_postmortem t.obs then
    match Sink.spans t.obs with
    | Some c ->
      Reporter.text (Sink.reporter t.obs)
        (Export.postmortem ~reason ~degrade_level:t.degrade
           ~names:(ds_name t) c)
    | None -> ()

(* ---------- metrics sampling ---------- *)

let pf_name (d : ds) =
  match d.pf with Some p -> Prefetcher.kind_name p | None -> "off"

let sample_all t m =
  let cycle = t.clock in
  Vec.iteri
    (fun _ (d : ds) ->
      Metrics.record m
        { Metrics.m_cycle = cycle;
          m_ds = d.handle;
          m_name = d.info.name;
          m_resident_bytes = d.pinned_bytes + d.resident_bytes;
          m_guards = d.st.guards;
          m_guard_hits = d.st.guard_hits;
          m_remote_faults = d.st.remote_faults;
          m_clean_faults = d.st.clean_faults;
          m_pf_issued = d.st.prefetch_issued;
          m_pf_used = d.st.prefetch_used;
          m_pf_late = d.st.prefetch_late;
          m_evictions = d.st.evictions;
          m_fetched_bytes = d.st.fetched_bytes;
          m_prefetcher = pf_name d;
          m_pf_switches = d.pf_switches })
    t.dss;
  Metrics.catch_up m ~now:cycle

let maybe_sample t =
  if Sink.sampling t.obs && Sink.metrics_due t.obs ~now:t.clock then
    match Sink.metrics t.obs with
    | Some m -> sample_all t m
    | None -> ()

(* ---------- CLOCK eviction over the remotable region ---------- *)

let obj_size (d : ds) = 1 lsl d.obj_shift

let evict_until_fits t =
  let budget = t.cfg.remotable_bytes in
  let spins = ref (2 * Ring.length t.clockq + 2) in
  (* Eviction bursts coalesce their dirty writebacks into one posted
     request when batching is on; the per-object count/bytes accumulate
     here and hit the fabric once after the scan. *)
  let wb_count = ref 0 in
  let wb_bytes = ref 0 in
  while t.remotable_used > budget && !spins > 0 && not (Ring.is_empty t.clockq) do
    decr spins;
    let h = Ring.head_fst t.clockq and o = Ring.head_snd t.clockq in
    Ring.drop t.clockq;
    let d = get_ds t h in
    let st = if o < Array.length d.objs then d.objs.(o) else 0 in
    let st =
      (* A transfer that already landed is no longer in flight, even if
         nothing touched the object since; otherwise stale prefetches
         would clog the ring as unevictable residents. *)
      if st land b_inflight <> 0 && d.arrivals.(o) <= t.clock then begin
        d.objs.(o) <- st land lnot b_inflight;
        d.objs.(o)
      end
      else st
    in
    if st land b_inclock = 0 || d.pinned then
      () (* stale entry *)
    else if st land b_inflight <> 0 then
      (* never evict data still on the wire; give it a second chance *)
      Ring.push t.clockq h o
    else if st land b_ref <> 0 then begin
      d.objs.(o) <- st land lnot b_ref;
      Ring.push t.clockq h o
    end
    else begin
      (* evict *)
      let dirty = st land b_dirty <> 0 in
      if dirty then begin
        if t.cfg.batching then begin
          incr wb_count;
          wb_bytes := !wb_bytes + obj_size d
        end
        else Fabric.writeback t.fabric ~now:t.clock ~bytes:(obj_size d);
        if Sink.tracing t.obs then
          Sink.emit t.obs
            (Event.make ~cycle:t.clock ~ds:h ~obj:o
               (Event.Writeback { bytes = obj_size d }))
      end;
      d.objs.(o) <- 0;
      t.remotable_used <- t.remotable_used - obj_size d;
      d.resident_bytes <- d.resident_bytes - obj_size d;
      d.st.evictions <- d.st.evictions + 1;
      if Sink.tracing t.obs then
        Sink.emit t.obs
          (Event.make ~cycle:t.clock ~ds:h ~obj:o (Event.Evict { dirty }))
    end
  done;
  if !wb_count > 0 then
    Fabric.writeback_many t.fabric ~now:t.clock ~count:!wb_count
      ~bytes:!wb_bytes;
  (* With everything left in the ring on the wire (or the spin bound
     exhausted) the cache can stay transiently above budget; count it
     instead of silently ignoring it. *)
  if t.remotable_used > budget then Rt_stats.note_over_budget t.stats

let clock_insert t (d : ds) o =
  if not d.pinned && d.objs.(o) land b_inclock = 0 then begin
    (* New arrivals enter referenced, or the eviction scan triggered by
       their own insertion would reclaim them before first use. *)
    d.objs.(o) <- d.objs.(o) lor b_inclock lor b_ref;
    Ring.push t.clockq d.handle o;
    t.remotable_used <- t.remotable_used + obj_size d;
    d.resident_bytes <- d.resident_bytes + obj_size d;
    evict_until_fits t
  end

(* ---------- allocation ---------- *)

let grow_bytes data needed =
  let cur = Bytes.length data in
  if needed <= cur then data
  else begin
    let ncap = ref (max cur 4096) in
    while !ncap < needed do
      ncap := !ncap * 2
    done;
    let nd = Bytes.make !ncap '\000' in
    Bytes.blit data 0 nd 0 cur;
    nd
  end

let grow_objs (d : ds) nobjs =
  let cur = Array.length d.objs in
  if nobjs > cur then begin
    let ncap = max nobjs (max 16 (2 * cur)) in
    let no = Array.make ncap 0 in
    let na = Array.make ncap 0 in
    Array.blit d.objs 0 no 0 cur;
    Array.blit d.arrivals 0 na 0 cur;
    d.objs <- no;
    d.arrivals <- na
  end

(* A loop, not a local recursive function: that closure would be
   allocated on every allocation. *)
let pow2_ceil x =
  let p = ref 8 in
  while !p < x do
    p := !p * 2
  done;
  !p

let align_up x a = (x + a - 1) land lnot (a - 1)

(* Per-structure window depth.  In byte-budget mode the depth is a
   pure function of the structure's (static) object size, so it is as
   deterministic as the fixed depth — smaller objects, deeper runs,
   same bytes in flight. *)
let info_prefetch_depth t (info : Static_info.t) =
  match t.cfg.prefetch_bytes with
  | None -> t.cfg.prefetch_depth
  | Some budget -> max 1 (min 64 (budget / info.Static_info.obj_size))

(* The greedy prefetcher's scan: every tagged pointer in object [o]'s
   slots that lands inside a live pool, in slot order. *)
let scan_object_pointers t (d : ds) o buf =
  let osz = obj_size d in
  let base = o lsl d.obj_shift in
  let stop = min (base + osz) d.pool_used in
  let w = ref base in
  while !w + 8 <= stop do
    let v = Int64.to_int (Bytes.get_int64_le d.data !w) in
    if v > 0 && Addr.is_managed v then begin
      let h = Addr.ds_of v in
      if h >= 1 && h <= Vec.length t.dss then begin
        let td = Vec.get t.dss (h - 1) in
        let off = Addr.offset_of v in
        if off < td.pool_used then
          Targets.push buf ~ds:h ~obj:(off lsr td.obj_shift)
      end
    end;
    w := !w + 8
  done

let ds_init t ~sid =
  if sid < 0 || sid >= Array.length t.infos then fail "ds_init: bad sid %d" sid;
  let info = t.infos.(sid) in
  let handle = Vec.length t.dss + 1 in
  if handle > Addr.max_handle then fail "too many data structures";
  stall t ~ds:handle Attribution.Bookkeeping t.cfg.cost.ds_init;
  let depth = info_prefetch_depth t info in
  let pf, candidates =
    match t.cfg.prefetch_mode with
    | Pf_none -> (None, [])
    | Pf_stride_only -> (Some (Prefetcher.stride ~depth), [])
    | Pf_per_class -> (Prefetcher.of_class info.prefetch ~depth, [])
    | Pf_adaptive ->
      (* Start from the compiler's class, keep the other classes as
         fallbacks, and allow switching off entirely. *)
      let all =
        Static_info.[ Stride; Jump_pointer; Greedy_recursive ]
      in
      let rest = List.filter (fun c -> c <> info.prefetch) all in
      let order =
        (if info.prefetch = Static_info.No_prefetch then all
         else info.prefetch :: rest)
        @ [ Static_info.No_prefetch ]
      in
      (match order with
       | first :: fallbacks -> (Prefetcher.of_class first ~depth, fallbacks)
       | [] -> (None, []))
  in
  let order_of_candidates =
    match t.cfg.prefetch_mode with
    | Pf_adaptive -> begin
      match pf with
      | Some p ->
        let cur =
          match Prefetcher.kind_name p with
          | "stride" -> Static_info.Stride
          | "jump" -> Static_info.Jump_pointer
          | _ -> Static_info.Greedy_recursive
        in
        cur :: candidates
      | None -> candidates
    end
    | _ -> []
  in
  let obj_shift = log2_exact info.obj_size in
  let st = Rt_stats.ds_stats t.stats handle in
  let prof = Profile.register t.prof handle in
  let rec d =
    { handle; info; obj_shift;
      pinned = t.pref.(sid); pinned_bytes = 0; resident_bytes = 0;
      data = Bytes.create 0; pool_used = 0; objs = [||]; arrivals = [||];
      pf; scan = (fun o buf -> scan_object_pointers t d o buf);
      window_fits = t.cfg.remotable_bytes / (1 lsl obj_shift) >= 2 * (depth + 1);
      pf_candidates = candidates; pf_order = order_of_candidates;
      pf_cooldown = 0;
      epoch_accesses = 0; epoch_issued = 0; epoch_used = 0; epoch_faults = 0;
      pf_switches = 0;
      scale =
        (match List.assoc_opt info.name t.cfg.ds_cost_scales with
         | Some s -> s
         | None -> t.cfg.cost_scale);
      st; prof }
  in
  ignore (Vec.push t.dss d);
  handle

let alloc_unmanaged t ~size =
  let off = align_up t.unmanaged_used 8 in
  t.unmanaged_data <- grow_bytes t.unmanaged_data (off + size);
  t.unmanaged_used <- off + size;
  Addr.unmanaged ~offset:off

let ds_alloc t ~handle ~size =
  (* The handle is checked before anything is charged: a call that
     traps on a bad handle must not advance the clock. *)
  if handle <> 0 then ignore (get_ds t handle);
  stall t ~ds:handle Attribution.Bookkeeping t.cfg.cost.ds_alloc;
  if size <= 0 then fail "dsalloc: non-positive size %d" size;
  if handle = 0 then alloc_unmanaged t ~size
  else begin
    let d = get_ds t handle in
    (* Runtime override of the static hint (paper §4.2): once the
       structure stops fitting in pinned memory, remote its future
       allocations.  Untagged pointers already issued stay local. *)
    if d.pinned && t.pinned_used + size > t.pinned_budget then begin
      d.pinned <- false;
      d.st.demotions <- d.st.demotions + 1
    end;
    if d.pinned then begin
      (* Pinned path: untagged local memory; the custody check will
         fall through on every access. *)
      t.pinned_used <- t.pinned_used + size;
      d.pinned_bytes <- d.pinned_bytes + size;
      d.st.alloc_bytes <- d.st.alloc_bytes + size;
      alloc_unmanaged t ~size
    end
    else begin
      let osz = obj_size d in
      let align = if size >= osz then osz else pow2_ceil size in
      let off = align_up d.pool_used align in
      let finish = off + size in
      d.data <- grow_bytes d.data finish;
      let was = d.pool_used in
      d.pool_used <- finish;
      let first_obj = off lsr d.obj_shift in
      let last_obj = (finish - 1) lsr d.obj_shift in
      grow_objs d (last_obj + 1);
      d.st.alloc_bytes <- d.st.alloc_bytes + (finish - was);
      for o = first_obj to last_obj do
        if d.objs.(o) land b_resident = 0 then begin
          d.objs.(o) <- d.objs.(o) lor b_resident;
          clock_insert t d o
        end
      done;
      Addr.encode ~ds:handle ~offset:off
    end
  end

let free t addr = ignore t; ignore addr (* pool-based lifetime *)

(* ---------- prefetch issue ---------- *)

(* The structure a candidate names: handle 0 is the accessed one. *)
let target_ds t (d : ds) h = if h = 0 then d else get_ds t h

(* Would object [o] of [td] actually go on the wire?  The flag array
   is grown *before* it is read: jump/greedy prefetchers can emit
   indices beyond the grown portion of a target structure's arrays. *)
let prefetch_viable (td : ds) o =
  td.window_fits && (not td.pinned) && o >= 0 && o lsl td.obj_shift < td.pool_used
  && begin
    grow_objs td (o + 1);
    td.objs.(o) land (b_resident lor b_inflight) = 0
  end

(* [span] is the in-flight object's prefetch span (-1 when the issue
   occasion was unsampled): the eventual settle or timely hit will
   claim it as an [E_satisfy] parent. *)
let mark_prefetched t (d : ds) ~origin_obj (td : ds) o ~completion ~span =
  (match t.spans with
  | Some c when span >= 0 ->
    Span.note_inflight c ~ds:td.handle ~obj:o ~span
  | _ -> ());
  (* Perfect-prefetch what-if: the transfer still occupies the fabric
     exactly as issued (occupancy and counters unchanged), but the
     data is usable immediately, so settles never wait.  Prefetcher
     decisions are access-pattern-driven, so the fetch sequence — and
     therefore the program output — is unchanged. *)
  let completion = if t.cfg.pf_instant then t.clock else completion in
  td.objs.(o) <- td.objs.(o) lor b_inflight lor b_prefetched lor b_resident;
  td.arrivals.(o) <- completion;
  td.st.prefetch_issued <- td.st.prefetch_issued + 1;
  (* Adaptation is judged at the *originating* structure — its
     prefetcher made the call, even for cross-structure targets. *)
  d.epoch_issued <- d.epoch_issued + 1;
  if Sink.tracing t.obs then
    Sink.emit t.obs
      (Event.make ~cycle:t.clock ~ds:td.handle ~obj:o
         (Event.Prefetch_issue
            { origin_ds = d.handle; origin_obj }));
  clock_insert t td o

(* One QP occupancy span per fabric request, on the queue pair's own
   Chrome-trace row: when it picked the transfer up and how long it
   held the link (protocol + serialization; queueing is the gap before
   [t_start]).  [ds] is the structure whose access put it on the wire. *)
let emit_qp_busy t ~ds ~obj (tr : Fabric.transfer) =
  if Sink.tracing t.obs then
    Sink.emit t.obs
      (Event.make ~cycle:tr.Fabric.t_start ~ds ~obj
         (Event.Qp_busy
            { qp = tr.Fabric.t_qp;
              busy = tr.Fabric.t_proto + tr.Fabric.t_ser }))

(* ---------- fault-rate tracking and graceful degradation ---------- *)

(* Record one transfer-attempt outcome in the sliding window and move
   the degradation level when the observed rate has crossed a
   threshold.  Pure bookkeeping: never touches the clock, so the
   attribution invariants are untouched by construction. *)
let note_fault_outcome t faulted =
  if t.fault_accounting then begin
    let old = Bytes.get_uint8 t.fw t.fw_pos in
    let v = if faulted then 1 else 0 in
    if t.fw_len = fault_window then t.fw_faults <- t.fw_faults - old
    else t.fw_len <- t.fw_len + 1;
    Bytes.set_uint8 t.fw t.fw_pos v;
    t.fw_faults <- t.fw_faults + v;
    t.fw_pos <- (t.fw_pos + 1) mod fault_window;
    if t.degrade_cooldown > 0 then
      t.degrade_cooldown <- t.degrade_cooldown - 1
    else if t.fw_len >= fault_window_min then begin
      let step delta note =
        t.degrade <- t.degrade + delta;
        t.degrade_cooldown <- degrade_cooldown_len;
        note t.stats;
        if Sink.tracing t.obs then
          Sink.emit t.obs
            (Event.make ~cycle:t.clock ~ds:0 ~obj:0
               (Event.Degrade
                  { level = t.degrade;
                    observed_pct = 100 * t.fw_faults / t.fw_len }))
      in
      if t.fw_faults * 8 > t.fw_len && t.degrade < degrade_max then
        step 1 Rt_stats.note_degrade_step
      else if t.fw_faults * 32 < t.fw_len && t.degrade > 0 then
        step (-1) Rt_stats.note_recover_step
    end
  end

(* One transfer attempt's outcome: into the degradation window, and
   onto the trace when a fault was injected into it. *)
let note_transfer t ~ds ~obj fault =
  note_fault_outcome t (fault <> None);
  match fault with
  | Some kind when Sink.tracing t.obs ->
    Sink.emit t.obs
      (Event.make ~cycle:t.clock ~ds ~obj
         (Event.Fault_inject { kind = Fabric.fault_kind_name kind }))
  | _ -> ()

(* Effective prefetch fan-out after degradation: each step halves the
   structure's configured depth (its byte-derived depth in byte-budget
   mode, so degradation also operates on the wire budget); at zero the
   runtime is demand-only until the window recovers. *)
let effective_prefetch_limit t (d : ds) =
  if t.degrade = 0 then max_int
  else info_prefetch_depth t d.info asr t.degrade

(* ---------- stall occasions ---------- *)

(* [root] of an occasion outside a demand-fetch chain. *)
let unchained = -2

(* Close the open occasion as one [kind] of stall on [obj] of [d]:
   read and reset the phases [stall] accumulated since the last close
   and write every view of them — the span (when sampled), the trace
   event, the latency sample and the per-structure counter.  Returns
   the span id, -1 when none was recorded.

   An occasion starts at its first charge ([issued] = -1); a demand
   fetch passes [issued] instead (its start, before any failed attempt)
   and closes in pieces, each [Retry] and then the completion.  Its
   [root] span id (-1 = unsampled) was allocated when the fetch began,
   so the chain is recorded or skipped whole: the completion records as
   [root], each retry as a fresh child of it.  Other occasions pass
   [root = unchained] and are sampled here.  [parent] is a clean-fault
   fetch's trap span (-1 = none); settles and hits take their prefetch
   parent from the in-flight registry.  Every argument is an immediate,
   so closing an occasion allocates nothing while spans are off. *)
let close_occasion t (d : ds) obj kind ~root ~parent ~issued ~fault =
  let o = t.occ in
  let first = if o.o_first >= 0 then o.o_first else t.clock in
  let issued = if issued >= 0 then issued else first in
  let stalled = t.clock - issued in
  (match kind with
   | Span.Demand | Span.Escalated ->
     Profile.record_latency d.prof stalled;
     d.st.remote_faults <- d.st.remote_faults + 1;
     if Sink.tracing t.obs then
       Sink.emit t.obs
         (Event.make ~cycle:issued ~ds:d.handle ~obj
            (Event.Remote_fault { queued = o.o_queued; stall = stalled }))
   | Span.Pf_settle ->
     Profile.record_latency d.prof stalled;
     d.st.prefetch_late <- d.st.prefetch_late + 1;
     if Sink.tracing t.obs then
       Sink.emit t.obs
         (Event.make ~cycle:issued ~ds:d.handle ~obj
            (Event.Prefetch_late { wait = stalled }))
   | Span.Trap -> d.st.clean_faults <- d.st.clean_faults + 1
   | Span.Retry | Span.Pf_hit | Span.Prefetch | Span.Batch -> ());
  let id =
    match t.spans with
    | None -> -1
    | Some c ->
      let id, parent =
        match kind with
        | Span.Retry when root <> unchained ->
          if root >= 0 && o.o_retry > 0 then (Span.fresh c, root) else (-1, -1)
        | _ when root <> unchained -> (root, parent)
        | Span.Pf_settle | Span.Pf_hit ->
          if Span.sampled c then
            let p = Span.take_inflight c ~ds:d.handle ~obj in
            (Span.fresh c, p)
          else (-1, -1)
        | _ -> if Span.sampled c then (Span.fresh c, parent) else (-1, -1)
      in
      if id >= 0 then begin
        let edge =
          if parent < 0 then None
          else
            match kind with
            | Span.Retry -> Some Span.E_retry
            | Span.Pf_settle | Span.Pf_hit -> Some Span.E_satisfy
            | _ -> Some Span.E_trap (* a demand fetch's trap parent *)
        in
        Span.add c
          { Span.sp_id = id; sp_kind = kind; sp_parent = parent; sp_edge = edge;
            sp_ds = d.handle; sp_obj = obj; sp_fn = t.site_fn;
            sp_block = t.site_block; sp_instr = t.site_instr;
            sp_issued = issued; sp_start = first + o.o_queued;
            sp_complete = t.clock; sp_queued = o.o_queued;
            sp_proto = o.o_proto; sp_wire = o.o_wire; sp_retry = o.o_retry;
            sp_pf_wait = o.o_pf_wait; sp_trap = o.o_trap; sp_qp = o.o_qp;
            sp_bytes = obj_size d;
            sp_fault = Option.map Fabric.fault_kind_name fault };
        t.cur_span <- id
      end;
      id
  in
  o.o_first <- -1;
  o.o_qp <- -1;
  o.o_queued <- 0;
  o.o_proto <- 0;
  o.o_wire <- 0;
  o.o_retry <- 0;
  o.o_pf_wait <- 0;
  o.o_trap <- 0;
  id

(* An occasion outside any demand-fetch chain. *)
let close t d obj kind =
  close_occasion t d obj kind ~root:unchained ~parent:(-1) ~issued:(-1)
    ~fault:None

(* The one constructor for fabric-occupancy spans, built from the
   transfer that carried them.  A standalone prefetch or a batch takes
   the transfer's phase split and fault and hangs off the access that
   ran the prefetcher; a batch member ([member] = its batch span and
   own completion, sampled with the batch) takes no phases, which the
   batch already accounts for.  The clock never waited on any of it,
   so these spans stay out of the span/ledger reconciliation. *)
let transfer_span t kind ~ds ~obj ~bytes ?member (tr : Fabric.transfer) =
  match t.spans with
  | Some c when Option.is_some member || Span.sampled c ->
    let id = Span.fresh c in
    let parent, edge, complete, (queued, proto, wire, fault) =
      match member with
      | Some (batch, complete) ->
        (batch, Some Span.E_member, complete, (0, 0, 0, None))
      | None ->
        ( t.cur_span,
          (if t.cur_span >= 0 then Some Span.E_trigger else None),
          tr.Fabric.t_complete,
          ( tr.Fabric.t_queued, tr.Fabric.t_proto, tr.Fabric.t_ser,
            Option.map Fabric.fault_kind_name tr.Fabric.t_fault ) )
    in
    Span.add c
      { Span.sp_id = id; sp_kind = kind; sp_parent = parent; sp_edge = edge;
        sp_ds = ds; sp_obj = obj; sp_fn = t.site_fn; sp_block = t.site_block;
        sp_instr = t.site_instr; sp_issued = t.clock;
        sp_start = tr.Fabric.t_start; sp_complete = complete;
        sp_queued = queued; sp_proto = proto; sp_wire = wire; sp_retry = 0;
        sp_pf_wait = 0; sp_trap = 0; sp_qp = tr.Fabric.t_qp; sp_bytes = bytes;
        sp_fault = fault };
    id
  | _ -> -1

(* Prefetch one viable object [o] of [td] as its own request. *)
let prefetch_one t (d : ds) ~origin_obj (td : ds) o =
  match Fabric.fetch_attempt t.fabric ~scale:td.scale ~now:t.clock ~bytes:(obj_size td) with
  | Error _ ->
    (* Prefetches are speculative: a NACKed one is simply dropped —
       the demand path re-fetches the object if it is ever needed.
       The CPU never waited, so no cycles are spent or attributed. *)
    Rt_stats.note_pf_failed t.stats;
    note_transfer t ~ds:td.handle ~obj:o (Some Fabric.Transient)
  | Ok tr ->
    td.st.fetched_bytes <- td.st.fetched_bytes + obj_size td;
    note_transfer t ~ds:td.handle ~obj:o tr.Fabric.t_fault;
    emit_qp_busy t ~ds:d.handle ~obj:origin_obj tr;
    let span =
      transfer_span t Span.Prefetch ~ds:td.handle ~obj:o ~bytes:(obj_size td)
        tr
    in
    mark_prefetched t d ~origin_obj td o ~completion:tr.Fabric.t_complete
      ~span

(* Unbatched issue: each candidate is judged just before it goes out,
   so an earlier issue (or the eviction it triggered) is seen by the
   next. *)
let issue_prefetches t (d : ds) ~origin_obj =
  let buf = t.pf_buf in
  for i = 0 to Targets.length buf - 1 do
    let td = target_ds t d (Targets.ds buf i) and o = Targets.obj buf i in
    if prefetch_viable td o then prefetch_one t d ~origin_obj td o
  done

(* Batched issue: everything one prefetcher call produced — windows
   and cross-structure fanout alike — goes to the fabric as a single
   request.  The viable candidates are kept in place under their real
   handles, then sorted by (structure, object) so adjacent objects
   serialize back to back, and deduplicated so a prefetcher repeating
   itself cannot double-mark.  A batch of one takes the plain fetch
   path and stays bit-identical to unbatched mode. *)
let issue_prefetch_batch t (d : ds) ~origin_obj =
  let buf = t.pf_buf in
  let n = ref 0 in
  for i = 0 to Targets.length buf - 1 do
    let td = target_ds t d (Targets.ds buf i) and o = Targets.obj buf i in
    if prefetch_viable td o then begin
      Targets.set buf !n ~ds:td.handle ~obj:o;
      incr n
    end
  done;
  Targets.truncate buf !n;
  Targets.sort_uniq buf;
  let count = Targets.length buf in
  if count = 1 then
    prefetch_one t d ~origin_obj (get_ds t (Targets.ds buf 0)) (Targets.obj buf 0)
  else if count > 1 then begin
    if Array.length t.batch_sizes < count then begin
      t.batch_sizes <- Array.make (2 * count) 0;
      t.batch_completions <- Array.make (2 * count) 0
    end;
    let sizes = t.batch_sizes and completions = t.batch_completions in
    let bytes = ref 0 in
    for i = 0 to count - 1 do
      sizes.(i) <- obj_size (get_ds t (Targets.ds buf i));
      bytes := !bytes + sizes.(i)
    done;
    match
      Fabric.fetch_many_attempt t.fabric ~scale:d.scale ~now:t.clock ~sizes
        ~count ~completions
    with
    | Error _ ->
      (* The whole coalesced request was NACKed: every target dropped. *)
      Rt_stats.note_pf_failed t.stats;
      note_transfer t ~ds:d.handle ~obj:origin_obj (Some Fabric.Transient)
    | Ok tr ->
      note_transfer t ~ds:d.handle ~obj:origin_obj tr.Fabric.t_fault;
      emit_qp_busy t ~ds:d.handle ~obj:origin_obj tr;
      if Sink.tracing t.obs then
        Sink.emit t.obs
          (Event.make ~cycle:t.clock ~ds:d.handle ~obj:origin_obj
             (Event.Batch_fetch { count; bytes = !bytes }));
      (* One batch span, then one member span per object (members
         exist for the causal chain and per-object completion times).
         Batch id precedes member ids, preserving parent < child. *)
      let batch_sp =
        transfer_span t Span.Batch ~ds:d.handle ~obj:origin_obj ~bytes:!bytes tr
      in
      for i = 0 to count - 1 do
        let td = get_ds t (Targets.ds buf i) and o = Targets.obj buf i in
        let span =
          if batch_sp < 0 then -1
          else
            transfer_span t Span.Prefetch ~ds:td.handle ~obj:o
              ~bytes:sizes.(i) ~member:(batch_sp, completions.(i)) tr
        in
        td.st.fetched_bytes <- td.st.fetched_bytes + sizes.(i);
        mark_prefetched t d ~origin_obj td o ~completion:completions.(i) ~span
      done
  end

let epoch_len = 1024
let epoch_min_issued = 64
let epoch_min_accuracy = 0.25
let epoch_min_signal = 32     (* misses+uses needed to judge coverage *)
let epoch_min_coverage = 0.25
let reexplore_cooldown = 4 (* epochs spent off before retrying *)

let emit_policy_switch t (d : ds) ~from_pf =
  if Sink.tracing t.obs then
    Sink.emit t.obs
      (Event.make ~cycle:t.clock ~ds:d.handle ~obj:0
         (Event.Policy_switch { from_pf; to_pf = pf_name d }))

(* Adaptive mode (paper: "standard prefetching metrics, such as
   accuracy and coverage, are used to evaluate the effectiveness of
   each prefetching policy"): at each epoch boundary, drop a prefetcher
   that is either inaccurate (issues a lot, little of it used in time)
   or has poor coverage (misses abound while it stays silent or late),
   and move to the next candidate.  When every candidate has failed,
   turn prefetching off for a cool-down and then re-explore — access
   patterns change between phases (a structure built in random order
   may still be chased linearly later), so a verdict is never final. *)
let adapt_prefetcher t (d : ds) =
  d.epoch_accesses <- d.epoch_accesses + 1;
  if
    t.cfg.prefetch_mode = Pf_adaptive
    && d.epoch_accesses >= epoch_len
  then begin
    if Sink.tracing t.obs then
      Sink.emit t.obs
        (Event.make ~cycle:t.clock ~ds:d.handle ~obj:0 Event.Epoch_mark);
    (match d.pf with
     | None ->
       if d.pf_cooldown > 0 then begin
         d.pf_cooldown <- d.pf_cooldown - 1;
         if d.pf_cooldown = 0 then begin
           match d.pf_order with
           | first :: rest ->
             d.pf <- Prefetcher.of_class first
                       ~depth:(info_prefetch_depth t d.info);
             d.pf_candidates <- rest;
             d.pf_switches <- d.pf_switches + 1;
             emit_policy_switch t d ~from_pf:"off"
           | [] -> ()
         end
       end
     | Some _ ->
       let accuracy =
         if d.epoch_issued = 0 then 1.0
         else float_of_int d.epoch_used /. float_of_int d.epoch_issued
       in
       let signal = d.epoch_faults + d.epoch_used in
       let coverage =
         if signal = 0 then 1.0
         else float_of_int d.epoch_used /. float_of_int signal
       in
       let inaccurate =
         d.epoch_issued >= epoch_min_issued && accuracy < epoch_min_accuracy
       in
       let uncovering =
         signal >= epoch_min_signal && coverage < epoch_min_coverage
       in
       if inaccurate || uncovering then begin
         let from_pf = pf_name d in
         d.pf_switches <- d.pf_switches + 1;
         (match d.pf_candidates with
          | [] ->
            d.pf <- None;
            d.pf_cooldown <- reexplore_cooldown
          | next :: rest ->
            d.pf <- Prefetcher.of_class next
                      ~depth:(info_prefetch_depth t d.info);
            d.pf_candidates <- rest);
         emit_policy_switch t d ~from_pf
       end);
    d.epoch_accesses <- 0;
    d.epoch_issued <- 0;
    d.epoch_used <- 0;
    d.epoch_faults <- 0
  end

let run_prefetcher t (d : ds) ~obj ~missed =
  (match d.pf with
   | None -> ()
   | Some pf ->
     Prefetcher.on_access pf t.pf_buf ~obj ~missed ~scan:d.scan;
     (* Graceful degradation: under a faulty fabric each degradation
        step halves the prefetch fan-out per access, down to
        demand-only at the floor — fewer speculative transfers on a
        link that is failing them.  Recovery re-widens the window. *)
     if t.fault_accounting && t.degrade > 0 then begin
       let limit = effective_prefetch_limit t d in
       let n = Targets.length t.pf_buf in
       if n > limit then begin
         Rt_stats.note_pf_suppressed t.stats (n - limit);
         Targets.truncate t.pf_buf limit
       end
     end;
     if t.cfg.batching then issue_prefetch_batch t d ~origin_obj:obj
     else issue_prefetches t d ~origin_obj:obj);
  if t.cfg.prefetch_mode = Pf_adaptive then adapt_prefetcher t d

(* ---------- the guard (cards_deref) ---------- *)

(* The structure behind a managed address; the object is
   [obj_of d addr]. *)
let locate t addr =
  let h = Addr.ds_of addr in
  let d = get_ds t h in
  let off = Addr.offset_of addr in
  if off >= d.pool_used then
    fail "wild pointer: ds %d offset %d beyond pool (%d bytes)" h off d.pool_used;
  d

let obj_of (d : ds) addr = Addr.offset_of addr lsr d.obj_shift

(* Wait for an in-flight object to land; returns true when the data
   was already there (the prefetch was timely). *)
let settle_inflight t (d : ds) o =
  let st = d.objs.(o) in
  if st land b_inflight <> 0 then begin
    let wait = d.arrivals.(o) - t.clock in
    d.objs.(o) <- st land lnot b_inflight;
    if wait > 0 then begin
      stall t ~ds:d.handle Attribution.Pf_wait wait;
      ignore (close t d o Span.Pf_settle);
      false
    end
    else true
  end
  else true

(* ---------- the demand fetch ---------- *)

(* A demand fetch of object [o] of [d] runs as the top-level functions
   below, never as closures, so a remote fault allocates nothing.
   [start] is the clock when the fetch began, [root] its span id (see
   [demand_fetch]) and [parent] the trap span whose handler issued it
   (-1 = none): the completion span then carries an [E_trap] edge. *)

(* Cycles burned off the happy path — NACK turnarounds, abandoned late
   completions, backoff waits — are real CPU stall and land in their
   own ledger cause, so the exactness invariants keep holding under
   any fault rate. *)
let retry_stall t (d : ds) c =
  if c > 0 then stall t ~ds:d.handle Attribution.Retry c

(* The attempt that delivered the data, issued at the current clock:
   its queued + proto + ser split adds up to the fabric's
   [t_complete - now] exactly, and address-to-object mapping rides with
   the protocol overhead.  Latency is end-to-end: failed attempts and
   backoffs included. *)
let finish_fetch t (d : ds) o kind ~start ~root ~parent (tr : Fabric.transfer) =
  stall t ~ds:d.handle t.queue_causes.(tr.Fabric.t_qp) tr.Fabric.t_queued;
  stall t ~ds:d.handle Attribution.Proto
    (tr.Fabric.t_proto + t.cfg.cost.deref_map);
  stall t ~ds:d.handle Attribution.Wire tr.Fabric.t_ser;
  ignore
    (close_occasion t d o kind ~root ~parent ~issued:start
       ~fault:tr.Fabric.t_fault);
  d.objs.(o) <- d.objs.(o) lor b_resident;
  d.epoch_faults <- d.epoch_faults + 1;
  emit_qp_busy t ~ds:d.handle ~obj:o tr;
  clock_insert t d o

let rec demand_attempt t (d : ds) o ~start ~root ~parent n =
  let osz = obj_size d in
  match Fabric.fetch_attempt t.fabric ~scale:d.scale ~now:t.clock ~bytes:osz with
  | Error f ->
    (* The CPU waited for the NACK: queueing + protocol turnaround. *)
    retry_stall t d (f.Fabric.f_fail - t.clock);
    note_transfer t ~ds:d.handle ~obj:o (Some Fabric.Transient);
    backoff t d o ~start ~root ~parent n (Some Fabric.Transient)
  | Ok tr -> (
    (* The fabric counted this transfer's bytes the moment it
       completed [Ok] — even a late completion we abandon below still
       crossed the wire — so the per-structure mirror bumps here, not
       in [finish_fetch]. *)
    d.st.fetched_bytes <- d.st.fetched_bytes + osz;
    match tr.Fabric.t_fault with
    | Some Fabric.Late as fault
      when n < t.cfg.retry_max
           && tr.Fabric.t_complete - t.clock > t.cfg.fetch_timeout_cycles ->
      (* The congested completion blew the per-fetch budget: give up on
         it after [fetch_timeout_cycles] and re-issue.  Only
         late-faulted attempts can time out — legitimate queueing never
         trips this, so a healthy loaded fabric cannot start a retry
         storm. *)
      note_transfer t ~ds:d.handle ~obj:o fault;
      Rt_stats.note_timeout t.stats;
      if Sink.tracing t.obs then
        Sink.emit t.obs
          (Event.make ~cycle:t.clock ~ds:d.handle ~obj:o
             (Event.Fetch_timeout { budget = t.cfg.fetch_timeout_cycles }));
      retry_stall t d t.cfg.fetch_timeout_cycles;
      backoff t d o ~start ~root ~parent n fault
    | fault ->
      note_transfer t ~ds:d.handle ~obj:o fault;
      finish_fetch t d o Span.Demand ~start ~root ~parent tr)

(* Each failed attempt closes as one Retry occasion: its NACK
   turnaround or timeout budget plus the backoff wait. *)
and backoff t (d : ds) o ~start ~root ~parent n fault =
  if n >= t.cfg.retry_max then begin
    (* Retries exhausted: the reliable channel cannot fault, so forward
       progress is guaranteed at any fault rate. *)
    let osz = obj_size d in
    Rt_stats.note_escalation t.stats;
    ignore
      (close_occasion t d o Span.Retry ~root ~parent:(-1) ~issued:(-1) ~fault);
    d.st.fetched_bytes <- d.st.fetched_bytes + osz;
    finish_fetch t d o Span.Escalated ~start ~root ~parent
      (Fabric.fetch_reliable t.fabric ~scale:d.scale ~now:t.clock ~bytes:osz);
    maybe_postmortem t ~reason:"demand fetch escalated to the reliable channel"
  end
  else begin
    let wait = t.cfg.retry_backoff_cycles lsl min n 6 in
    Rt_stats.note_retry t.stats;
    if Sink.tracing t.obs then
      Sink.emit t.obs
        (Event.make ~cycle:t.clock ~ds:d.handle ~obj:o
           (Event.Retry_backoff { attempt = n + 1; wait }));
    retry_stall t d wait;
    ignore
      (close_occasion t d o Span.Retry ~root ~parent:(-1) ~issued:(-1) ~fault);
    demand_attempt t d o ~start ~root ~parent (n + 1)
  end

(* One sampling decision covers the whole occasion — the completion
   span and every retry child — so chains are never half-recorded.  The
   root id is allocated up front: retry spans complete (and are added)
   before the fetch they delayed, but must point forward at it, and
   parent < child keeps the edge relation acyclic. *)
let demand_fetch t (d : ds) o ~span_parent =
  let root =
    match t.spans with Some c when Span.sampled c -> Span.fresh c | _ -> -1
  in
  demand_attempt t d o ~start:t.clock ~root ~parent:span_parent 0

let note_prefetch_hit t (d : ds) o ~timely =
  let st = d.objs.(o) in
  if st land b_prefetched <> 0 then begin
    d.objs.(o) <- st land lnot b_prefetched;
    d.st.prefetch_used <- d.st.prefetch_used + 1;
    (* Adaptation only credits *timely* prefetches: a prediction that
       arrives after the access wanted it hid no latency, however
       accurate it was (greedy one-hop lookahead on a chase is the
       textbook case). *)
    if timely then begin
      d.epoch_used <- d.epoch_used + 1;
      (* Informational bucket: the demand stall this prefetch avoided
         (uncontended fetch + mapping) — what the access would have
         cost as a fault.  Not part of the wall-clock identity. *)
      Profile.add_hidden d.prof
        (Fabric.nominal_fetch_cycles t.fabric ~bytes:(obj_size d)
         + t.cfg.cost.deref_map);
      (* Zero-stall use: an empty occasion, recorded purely for the
         causal chain (the prefetch paid off).  A *late* use settles
         above instead and its mapping was already consumed there. *)
      ignore (close t d o Span.Pf_hit)
    end;
    if Sink.tracing t.obs then
      Sink.emit t.obs
        (Event.make ~cycle:t.clock ~ds:d.handle ~obj:o
           (Event.Prefetch_use { timely }))
  end

let guard t ~write addr =
  if
    (not (Addr.is_managed addr))
    (* Guards may be hoisted to loop preheaders and thus run
       speculatively (e.g. ahead of a zero-trip loop) with an address
       the loop would never dereference.  A managed address beyond its
       pool is then benign: pay the custody check and fall through.
       Real accesses still fault on wild pointers (see [resolve]). *)
    || (let h = addr lsr Addr.offset_bits in
        h > Vec.length t.dss
        || Addr.offset_of addr >= (Vec.get t.dss (h - 1)).pool_used)
  then stall t ~ds:0 Attribution.Guard_exec t.cfg.cost.guard_unmanaged
  else begin
    let d = locate t addr in
    let o = obj_of d addr in
    d.st.guards <- d.st.guards + 1;
    (* Each access starts a fresh causal context: [cur_span] is set by
       the demand/settle/hit span this access produces (if any) and
       read by [run_prefetcher] as the E_trigger parent below. *)
    (match t.spans with Some _ -> t.cur_span <- -1 | None -> ());
    let local_cost =
      if write then t.cfg.cost.guard_local_write else t.cfg.cost.guard_local_read
    in
    let st = d.objs.(o) in
    let missed =
      if st land b_resident <> 0 then begin
        let timely = settle_inflight t d o in
        note_prefetch_hit t d o ~timely;
        stall t ~ds:d.handle Attribution.Guard_exec local_cost;
        d.st.guard_hits <- d.st.guard_hits + 1;
        if Sink.tracing t.obs then
          Sink.emit t.obs
            (Event.make ~cycle:t.clock ~ds:d.handle ~obj:o Event.Guard_hit);
        false
      end
      else begin
        stall t ~ds:d.handle Attribution.Guard_exec local_cost;
        if Sink.tracing t.obs then
          Sink.emit t.obs
            (Event.make ~cycle:t.clock ~ds:d.handle ~obj:o Event.Guard_miss);
        demand_fetch t d o ~span_parent:(-1);
        true
      end
    in
    let bits = if write then b_ref lor b_dirty else b_ref in
    d.objs.(o) <- d.objs.(o) lor bits;
    run_prefetcher t d ~obj:o ~missed;
    maybe_sample t
  end

let loop_check t addrs =
  (* A base pointer is clean-runnable iff it is untagged: untagged
     allocations are pinned local memory that can never be evicted.
     A tagged base could lose residency mid-loop, so it forces the
     instrumented version. *)
  let ok = ref true in
  for i = 0 to Array.length addrs - 1 do
    stall t ~ds:0 Attribution.Bookkeeping t.cfg.cost.loop_check_per_ds;
    if Addr.is_managed addrs.(i) then ok := false
  done;
  if Sink.tracing t.obs then
    Sink.emit t.obs
      (Event.make ~cycle:t.clock ~ds:0 ~obj:0 (Event.Loop_version { clean = !ok }));
  !ok

(* ---------- data accesses ---------- *)

(* Unguarded fallback: trap, then behave like a demand fault. *)
let clean_fault t (d : ds) o ~write =
  let start = t.clock in
  let c =
    segv_penalty
    + (if write then t.cfg.cost.guard_local_write
       else t.cfg.cost.guard_local_read)
  in
  stall t ~ds:d.handle Attribution.Trap c;
  (* The trap closes as its own occasion; the nested demand fetch (if
     any) becomes its child via [E_trap], with the trap id allocated
     first so parent < child holds. *)
  let trap_sp = close t d o Span.Trap in
  ignore (settle_inflight t d o);
  if d.objs.(o) land b_resident = 0 then
    demand_fetch t d o ~span_parent:trap_sp;
  (* The span covers trap + settle + fetch; a nested [Remote_fault]
     span appears inside it when the object had to be demand-fetched. *)
  if Sink.tracing t.obs then
    Sink.emit t.obs
      (Event.make ~cycle:start ~ds:d.handle ~obj:o
         (Event.Clean_fault { stall = t.clock - start }))

(* Point [acc_data] at an access's backing bytes.  Skipping the store
   when it already points there keeps the write barrier off the common
   repeated-structure case. *)
let set_acc_data t data = if t.acc_data != data then t.acc_data <- data

(* Canonical access path: returns the offset into [t.acc_data]. *)
let resolve t addr ~write =
  if Addr.is_managed addr then begin
    let d = locate t addr in
    let o = obj_of d addr in
    d.st.plain_accesses <- d.st.plain_accesses + 1;
    let st = d.objs.(o) in
    if st land b_resident = 0 then clean_fault t d o ~write
    else if st land b_inflight <> 0 then begin
      let timely = settle_inflight t d o in
      note_prefetch_hit t d o ~timely
    end;
    charge t t.cfg.cost.mem_access;
    let bits = if write then b_ref lor b_dirty else b_ref in
    d.objs.(o) <- d.objs.(o) lor bits;
    maybe_sample t;
    set_acc_data t d.data;
    Addr.offset_of addr
  end
  else begin
    let off = Addr.offset_of addr in
    if off + 8 > t.unmanaged_used then
      fail "wild unmanaged pointer: offset %d (segment %d bytes)" off
        t.unmanaged_used;
    Rt_stats.(
      let u = unmanaged_bucket t.stats in
      u.plain_accesses <- u.plain_accesses + 1);
    charge t t.cfg.cost.mem_access;
    maybe_sample t;
    set_acc_data t t.unmanaged_data;
    off
  end

let read_i64 t addr =
  let off = resolve t addr ~write:false in
  Int64.to_int (Bytes.get_int64_le t.acc_data off)

let write_i64 t addr v =
  let off = resolve t addr ~write:true in
  Bytes.set_int64_le t.acc_data off (Int64.of_int v)

let read_f64 t addr =
  let off = resolve t addr ~write:false in
  Int64.float_of_bits (Bytes.get_int64_le t.acc_data off)

let write_f64 t addr v =
  let off = resolve t addr ~write:true in
  Bytes.set_int64_le t.acc_data off (Int64.bits_of_float v)

(* ---------- the decoded engine's access fast path ---------- *)

(* The CaRDS idea applied to the simulator itself: [resolve] re-does
   per access work whose answer cannot change — the handle -> structure
   mapping.  The fast path answers it from a small direct-mapped
   translation cache and inlines the one dynamic decision that remains,
   the residency check; a resident local hit then costs one probe, one
   flag check and the same accounting as [resolve]'s happy case.
   Anything else — non-resident, in flight, beyond the pool, a wild
   unmanaged offset — falls back to the canonical path *before touching
   any counter or the clock*, so cycles, stats and attribution are
   bit-identical by construction whichever path an access takes.

   Cache safety: handles are dense and stable, structure records are
   created once and never replaced, and a pool only grows — so a cached
   entry can be missing but never stale, and residency/in-flight state
   is read fresh from [objs] on every access. *)

let tc_find t h =
  let slot = h land tc_mask in
  match t.tc.(slot) with
  | Some d as hit when d.handle = h -> hit
  | _ ->
    if h >= 1 && h <= Vec.length t.dss then begin
      let hit = Some (Vec.get t.dss (h - 1)) in
      t.tc.(slot) <- hit;
      hit
    end
    else None

(* A local hit returns its offset into [t.acc_data]; -1 means "take
   the slow path", with no observable action performed yet. *)
let resolve_fast t addr ~write =
  if Addr.is_managed addr then
    match tc_find t (Addr.ds_of addr) with
    | None -> -1
    | Some d ->
      let off = Addr.offset_of addr in
      if off >= d.pool_used then -1
      else begin
        let o = off lsr d.obj_shift in
        let st = d.objs.(o) in
        if st land (b_resident lor b_inflight) = b_resident then begin
          d.st.plain_accesses <- d.st.plain_accesses + 1;
          charge t t.cfg.cost.mem_access;
          d.objs.(o) <-
            st lor (if write then b_ref lor b_dirty else b_ref);
          maybe_sample t;
          set_acc_data t d.data;
          off
        end
        else -1
      end
  else begin
    let off = Addr.offset_of addr in
    if off + 8 > t.unmanaged_used then -1
    else begin
      Rt_stats.(
        let u = unmanaged_bucket t.stats in
        u.plain_accesses <- u.plain_accesses + 1);
      charge t t.cfg.cost.mem_access;
      maybe_sample t;
      set_acc_data t t.unmanaged_data;
      off
    end
  end

let access_off t addr ~write =
  let off = resolve_fast t addr ~write in
  if off >= 0 then off else resolve t addr ~write

let read_i64_fast t addr =
  let off = access_off t addr ~write:false in
  Int64.to_int (Bytes.get_int64_le t.acc_data off)

let write_i64_fast t addr v =
  let off = access_off t addr ~write:true in
  Bytes.set_int64_le t.acc_data off (Int64.of_int v)

let acc_data t = t.acc_data

(* ---------- introspection ---------- *)

type ds_report = {
  r_handle : int;
  r_sid : int;
  r_name : string;
  r_pinned : bool;
  r_bytes : int;
  r_objects : int;
  r_resident_bytes : int;    (* pinned + currently cache-resident *)
  r_prefetcher : string;     (* currently active prefetcher *)
  r_pf_calls : int;          (* accesses the active prefetcher observed *)
  r_pf_targets : int;        (* candidates it emitted (pre-filtering) *)
  r_pf_switches : int;       (* adaptive-mode policy switches *)
  r_stats : Rt_stats.ds;
}

let report t =
  List.map
    (fun (d : ds) ->
      { r_handle = d.handle;
        r_sid = d.info.sid;
        r_name = d.info.name;
        r_pinned = d.pinned;
        r_bytes = d.pool_used + d.pinned_bytes;
        r_objects = (d.pool_used + obj_size d - 1) lsr d.obj_shift;
        r_resident_bytes = d.pinned_bytes + d.resident_bytes;
        r_prefetcher = pf_name d;
        r_pf_calls = (match d.pf with Some p -> Prefetcher.calls p | None -> 0);
        r_pf_targets =
          (match d.pf with Some p -> Prefetcher.targets_emitted p | None -> 0);
        r_pf_switches = d.pf_switches;
        r_stats = d.st })
    (Vec.to_list t.dss)

let stats t = t.stats
let fabric_stats t = Fabric.stats t.fabric

let set_fabric_port t p = Fabric.set_port t.fabric p
let degrade_level t = t.degrade
let set_fault_rate t rate = Fabric.set_fault_rate t.fabric rate
let pinned_bytes t = t.pinned_used
let pinned_preference t = Array.copy t.pref
let sink t = t.obs
let profile t = t.prof
let attribution t = t.attr
