(** The instrumentation hook handed to the runtime and interpreter.

    A sink bundles an optional event ring ({!Trace}), an optional
    metrics series ({!Metrics}), an optional causal span collector
    ({!Span}), and the {!Reporter} through which all human-readable
    diagnostics flow.  The default {!null} sink has none of them: instrumented
    call sites check {!tracing} / {!sampling} (one cached boolean
    load) or match on {!spans} before constructing anything, so a run
    without observability does no extra allocation and follows the
    seed fast path. *)

type t

val null : t
(** No trace, no metrics, no spans, null reporter; every hook is a
    no-op. *)

val create :
  ?trace_capacity:int ->
  ?metrics_interval:int ->
  ?span_rate:float ->
  ?postmortem:bool ->
  ?reporter:Reporter.t ->
  unit ->
  t
(** Tracing is enabled iff [trace_capacity] is given; metric sampling
    iff [metrics_interval] (cycles) is given; span collection iff
    [span_rate] is given (1.0 = every occasion) or [postmortem] is
    set.  [postmortem] arms a one-shot post-mortem dump of the
    collector ({!Export.postmortem}) through [reporter] on the first
    trap or reliable-channel escalation.  [reporter] defaults to
    {!Reporter.null} — embedders that want human-readable summaries
    must opt in (the CLI passes {!Reporter.stderr_reporter}). *)

val tracing : t -> bool
(** Call sites must gate event construction on this. *)

val sampling : t -> bool

val emit : t -> Event.t -> unit

val metrics_due : t -> now:int -> bool

val trace : t -> Trace.t option
val metrics : t -> Metrics.t option
val spans : t -> Span.collector option
val reporter : t -> Reporter.t

val take_postmortem : t -> bool
(** True exactly once, on the first call after arming: the dump-once
    latch for the post-mortem report. *)
