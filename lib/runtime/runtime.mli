(** The CaRDS far-memory runtime (paper §4.2): a modified-AIFM-style
    object runtime managing far memory at data-structure granularity.

    Local memory is split into {e pinned} memory (data structures the
    policy localized; never evicted) and {e remotable} memory (a
    CLOCK-managed cache of remote objects).  Every pointer carries its
    data-structure handle in the non-canonical bits ({!Addr});
    [cards_deref] (here {!guard}) maps an address to its object, checks
    residency, and fetches over the {!Cards_net.Fabric} on a miss
    (paper Listing 4).

    Time is a shared cycle counter: the interpreter charges instruction
    costs, the runtime charges guard/fault/network costs, and the
    fabric adds queueing — the sum is the simulated execution time that
    every figure reports.

    Safety fallback: an {e unguarded} access that reaches a non-resident
    object (possible after guard hoisting/elision or in clean loop
    versions, §4.1) takes a fault-handler path: full fetch cost plus a
    trap penalty.  This mirrors the SIGSEGV fallback real far-memory
    runtimes keep and makes every transformation safe by construction. *)

type prefetch_mode =
  | Pf_none
  | Pf_stride_only  (** TrackFM: induction-variable streams only *)
  | Pf_per_class    (** CaRDS: per-structure class from the compiler *)
  | Pf_adaptive
      (** CaRDS with dynamic policy selection (§4.2): start from the
          compiler's class, monitor per-epoch accuracy, and fall back
          through the other prefetchers — ultimately to none — when a
          policy's accuracy stays poor. *)

type config = {
  policy : Policy.t;
  k : float;                    (** fraction of structures to localize *)
  local_bytes : int;            (** total local memory *)
  remotable_bytes : int;        (** reserved for the remotable cache *)
  cost : Cost.t;
  fabric_config : Cards_net.Fabric.config;
  prefetch_mode : prefetch_mode;
  prefetch_depth : int;
  prefetch_bytes : int option;
      (** layout-aware window sizing: when set, each structure's depth
          is [prefetch_bytes / obj_size] (clamped to [1, 64]) instead
          of the fixed [prefetch_depth], so a factorized hot pool with
          smaller objects earns a proportionally deeper run for the
          same bytes in flight.  The degradation controller halves the
          byte-derived depth per step, i.e. it budgets in bytes too.
          [None] (default) is bit-identical to the fixed depth. *)
  batching : bool;
      (** coalesce each prefetcher call's targets into one fabric
          request ({!Cards_net.Fabric.fetch_many_attempt}) and eviction-burst
          writebacks into posted batches; [false] issues per object *)
  retry_max : int;
      (** demand-fetch retries before escalating to the fabric's
          reliable channel (only reachable under fault injection) *)
  retry_backoff_cycles : int;
      (** backoff before the first retry; doubles per retry (capped at
          64x) *)
  fetch_timeout_cycles : int;
      (** per-attempt budget: a {e late-faulted} completion exceeding
          it is abandoned and the fetch re-issued.  Legitimate
          queueing never trips it, so a healthy loaded fabric cannot
          start a retry storm. *)
  cost_scale : Cards_net.Fabric.scale;
      (** what-if cost multiplier applied to every inbound fetch
          (default {!Cards_net.Fabric.unit_scale}, which is
          bit-identical to no scaling) *)
  ds_cost_scales : (string * Cards_net.Fabric.scale) list;
      (** per-structure overrides of [cost_scale], keyed by static
          name and resolved once at [ds_init]; first match wins.
          Batched prefetches are scaled by the {e originating}
          structure, matching how the what-if predictor scopes batch
          spans. *)
  pf_instant : bool;
      (** perfect-prefetch what-if: prefetched objects become usable
          at issue time (fabric occupancy and all counters unchanged),
          so late-prefetch settles never wait.  Timing-only. *)
  namespace : string;
      (** tenant handle namespace (default [""] = root).  A non-empty
          namespace prefixes every structure name this runtime reports
          (["tenant/name#sid"] from {!ds_name}), keeping per-tenant
          stats and attribution rows collision-free when the serving
          layer ({!Cards_serve.Serve}) aggregates many tenant runtimes
          into one view.  Handles stay runtime-local — a tagged
          pointer can never resolve against another tenant's table —
          so the namespace is an accounting label, never a sharing
          mechanism. *)
}

val default_config : config
(** CaRDS defaults: linear policy, k = 1, 64 MiB local / 8 MiB
    remotable, CaRDS costs, per-class prefetch, depth 4, batching on
    over two inbound queue pairs; 4 retries, 4 Ki-cycle initial
    backoff, 150 K-cycle fetch timeout; no what-if perturbation. *)

val whatif_config : config -> Cards_obs.Whatif.exec -> config option
(** Map an executable what-if scenario onto a perturbed copy of the
    config for deterministic re-execution ([None] when the scenario
    carries no runtime knob).  Every perturbation is timing-only:
    program outputs are bit-identical to the baseline, which the
    whatif bench and the differential tests assert. *)

type t

exception Runtime_error of string
(** Wild pointers, out-of-range handles, pool overflows. *)

val create : ?obs:Cards_obs.Sink.t -> config -> Static_info.t array -> t
(** [obs] (default {!Cards_obs.Sink.null}) receives trace events and
    epoch metric samples.  Observability is read-only with respect to
    simulated time: any sink yields cycle counts bit-identical to a
    run with the null sink. *)

(** {2 Clock} *)

val now : t -> int
val charge : t -> int -> unit
(** Advance the clock (the interpreter charges instruction costs).
    Charged cycles land in the profiler's compute counter.  Every other
    clock advance is the runtime's own stall, charged to one root cause
    in the {!attribution} ledger by the same internal primitive that
    advances the clock, so [Cards_obs.Profile.attributed (profile t) =
    now t] always holds. *)

(** {2 Runtime entry points (called from transformed code)} *)

val ds_init : t -> sid:int -> int
(** Instantiate a data structure from its static descriptor; returns
    the runtime handle that [dsalloc] takes and pointers carry. *)

val ds_alloc : t -> handle:int -> size:int -> int
(** Pool allocation.  [handle = 0] allocates unmanaged memory. *)

val free : t -> int -> unit
(** Pool deallocation is a no-op on individual objects (pool-based
    lifetime); kept for API fidelity and accounting. *)

val guard : t -> write:bool -> int -> unit
(** The [cards_deref] guard: localize the object behind the address. *)

val loop_check : t -> int list -> bool
(** Code-versioning check: true iff every base address' structure is
    currently pinned (fully local, cannot be evicted mid-loop). *)

(** {2 Data accesses (the heap)} *)

val read_i64 : t -> int -> int
val write_i64 : t -> int -> int -> unit
val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit

val read_i64_fast : t -> int -> int
val write_i64_fast : t -> int -> int -> unit
val read_f64_fast : t -> int -> float
val write_f64_fast : t -> int -> float -> unit
(** Accounting-identical fast-path variants used by the pre-decoded
    execution engine.  A resident local access resolves its structure
    through a small direct-mapped handle translation cache and costs
    one probe plus one residency flag check; any other case —
    non-resident, in flight, wild — falls back to the canonical
    functions above before touching any counter, so simulated cycles,
    stats and attribution are bit-identical whichever path is taken. *)

val alloc_unmanaged : t -> size:int -> int
(** Reserve unmanaged storage (globals segment). *)

(** {2 Introspection} *)

type ds_report = {
  r_handle : int;
  r_sid : int;
  r_name : string;
  r_pinned : bool;
  r_bytes : int;
  r_objects : int;
  r_resident_bytes : int; (** pinned bytes + bytes now in the remotable cache *)
  r_prefetcher : string;  (** currently active prefetcher ("off" if none) *)
  r_pf_calls : int;       (** accesses the active prefetcher observed *)
  r_pf_targets : int;     (** candidates it emitted, before filtering *)
  r_pf_switches : int;    (** adaptive-mode policy switches so far *)
  r_stats : Rt_stats.ds;
}

val report : t -> ds_report list

val stats : t -> Rt_stats.t
val fabric_stats : t -> Cards_net.Fabric.stats

val set_fabric_port :
  t -> (Cards_net.Fabric.port_event -> unit) option -> unit
(** Install (or clear) a port observer on this runtime's fabric slice
    ({!Cards_net.Fabric.set_port}).  Pure observation — timing, stats
    and outputs are bit-identical with or without an observer; the
    parallel serving engine uses it to collect per-tenant wire-event
    streams for its virtual-time merge oracle. *)

val degrade_level : t -> int
(** Current graceful-degradation level: 0 = full prefetch width; each
    step halves the effective prefetch fan-out (demand-only at the
    floor).  Driven by the observed fault rate over a sliding window
    of transfer outcomes; always 0 when fault injection is off. *)

val set_fault_rate : t -> float -> unit
(** Override the fabric's live fault rate mid-run (for tests and
    recovery experiments — degrade under a faulty fabric, then drop
    the rate and watch the window re-widen).
    @raise Invalid_argument outside [0, 1]. *)

val pinned_bytes : t -> int
val pinned_preference : t -> bool array

(** {2 Observability} *)

val sink : t -> Cards_obs.Sink.t
(** The sink passed to {!create} (the interpreter fetches it from
    here to stamp call events). *)

val profile : t -> Cards_obs.Profile.t
(** The always-on cycle-attribution profiler: the compute counter fed
    by {!charge}, per-structure latency histograms, and a bucket view
    of {!attribution}'s stall charges.
    [Cards_obs.Profile.attributed] of it equals {!now}. *)

val attribution : t -> Cards_obs.Attribution.t
(** The always-on stall root-cause ledger, the only record of stall
    cycles: [Cards_obs.Attribution.total] of it equals
    [now t - Cards_obs.Profile.compute (profile t)] — every
    non-compute cycle decomposed into protocol / wire / per-QP
    queueing / late-prefetch / retry / guard / trap / bookkeeping,
    keyed by structure and access site. *)

val set_site : t -> fn:string -> block:int -> instr:int -> unit
(** Stamp the current access site (function, basic block, instruction
    index) so subsequent stall charges attribute to it.  The
    interpreter calls this before each runtime-entering instruction;
    direct API users may ignore it and charge to
    [Attribution.unknown_site]. *)

val ds_name : t -> int -> string
(** Static name for a handle (["(unmanaged)"] for handle 0 or unknown)
    — the [names] labeller exporters take.  Prefixed with
    ["namespace/"] when the runtime was configured with a tenant
    namespace. *)

val namespace : t -> string
(** The configured tenant namespace ([""] for the root namespace). *)

val maybe_postmortem : t -> reason:string -> unit
(** Dump the flight recorder's post-mortem through the sink's
    reporter if the sink was created with [~postmortem:true] and the
    one-shot latch is still armed; a no-op otherwise.  The runtime
    fires this itself on a reliable-channel escalation; the
    interpreter fires it when a program traps. *)
