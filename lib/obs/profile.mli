(** Cycle-attribution profiler.

    Splits the run's total simulated cycles into buckets, per data
    structure (handle [0] = unmanaged segment / runtime bookkeeping
    not tied to one structure), plus one global compute bucket fed by
    the interpreter's instruction charges.

    The stall buckets are not stored here: they are a read-only,
    coarser grouping of the {!Attribution} ledger's causes, which the
    runtime's one clock-advance primitive writes.  The compute counter
    is kept independently, so

    {[ compute + Σ_handles wall(buckets) = Runtime.now ]}

    is a real check — a clock advance that bypasses the ledger breaks
    it — and the property that makes "where did the cycles go"
    answerable without double counting.  Attribution never touches the
    clock itself, so profiled and unprofiled runs report identical
    cycle counts.

    Also collects per-structure fetch-latency distributions
    (demand-fault stalls and late-prefetch waits) in bounded-memory
    log-bucket histograms ({!Cards_util.Stats}), so p50/p90/p99/p999
    tail latency is answerable per structure without retaining
    samples. *)

type buckets = {
  p_guard : int;
      (** guard executions: custody checks + local hit/miss cost
          ({!Attribution.Guard_exec}) *)
  p_demand : int;
      (** demand-fetch stall: protocol + wire + mapping cycles
          ({!Attribution.Proto} + {!Attribution.Wire}) *)
  p_queue : int;
      (** demand-fetch cycles spent queued behind other transfers
          (Σ {!Attribution.Queue} over every queue pair) *)
  p_pf_stall : int;
      (** stalls waiting on late (in-flight) prefetches
          ({!Attribution.Pf_wait}) *)
  p_retry : int;
      (** failed fetch attempts, backoff waits, and reliable-channel
          escalations under fault injection (zero when faults are off;
          {!Attribution.Retry}) *)
  p_trap : int;
      (** clean-fault trap penalties on unguarded paths
          ({!Attribution.Trap}) *)
  p_alloc : int;
      (** ds_init / dsalloc / loop-check bookkeeping
          ({!Attribution.Bookkeeping}) *)
  p_hidden : int;
      (** {e informational}, not wall-clock: fetch latency hidden by
          timely prefetches (what demand faults would have cost) *)
}
(** One handle's view, computed on demand from the ledger. *)

type t

type ds
(** One registered structure's own records: its fetch-latency
    histogram and hidden-latency counter. *)

val create : Attribution.t -> t
(** A profiler viewing [attr]'s stall charges.  Handle [0] is
    registered from the start. *)

val register : t -> int -> ds
(** Register a handle (idempotent) and return its records. *)

val buckets : t -> int -> buckets
(** One handle's buckets, grouped from
    {!Attribution.ds_cause_totals}. *)

val add_compute : t -> int -> unit
(** Charge interpreter/compute cycles (the residual category). *)

val compute : t -> int

val wall : buckets -> int
(** Sum of one handle's wall-clock buckets ([p_hidden] excluded). *)

val attributed : t -> int
(** [compute + Σ wall] over all handles; equals the runtime clock. *)

val handles : t -> int list
(** Registered handles, ascending. *)

val record_latency : ds -> int -> unit
(** Add one fetch latency (cycles) to the structure's distribution. *)

val add_hidden : ds -> int -> unit
(** Credit latency a timely prefetch hid ({!buckets}' [p_hidden]). *)

val latency : t -> int -> Cards_util.Stats.t
(** One handle's fetch-latency distribution (percentiles, count);
    empty for an unregistered handle. *)

val merged_latency : t -> Cards_util.Stats.t
(** The latency distribution merged over all handles (bucket-wise). *)

val merged_hist : t -> int array
(** Octave (log₂) view of {!merged_latency}: bucket [i] counts
    latencies in [2^i, 2^(i+1)).  Same length as
    {!Cards_util.Stats.log2_counts}. *)
