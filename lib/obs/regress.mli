(** Bench regression gate.

    Compares a perf snapshot (the [--json] output of [bench/main.exe])
    against a committed baseline within a relative tolerance, and
    reports every deviation with the record, metric, and both values.
    The simulator is deterministic, so an unchanged tree diffs to
    exactly zero; the tolerance only absorbs intentional small drifts.
    Checks are two-sided — an unexplained speedup means the cost model
    moved, which the baseline should record, not hide.

    A snapshot is [{"records": [...]}]; each record is one distinct run:
    a ["tag"], the ["sections"] of the bench that recorded it (a list
    of strings), and flat metrics — every other member with a numeric
    value, e.g. ["cycles"], ["fabric.fetches"],
    ["fabric.qp_queue_cycles\[0\]"], ["p99_cycles"]. *)

type violation =
  | Drifted of { record : string; metric : string; baseline : float; observed : float }
      (** the metric moved by more than the tolerance *)
  | Missing of { record : string; metric : string; baseline : float }
      (** the record is there, the metric is gone *)
  | Unrecorded of { record : string; sections : string list }
      (** the record is gone ([sections]: the requested sections that
          recorded it in the baseline), or is still there but no longer
          recorded by [sections] *)
  | Nothing_compared
      (** the baseline holds no metric the requested sections gate — an
          empty file, an old-schema file, or sections that record
          nothing; a gate that compared nothing must not pass *)

val records_of_snapshot : Cards_util.Json.t -> (string * Cards_util.Json.t) list
(** Tagged records of a snapshot document, in file order. *)

val compare_snapshots :
  ?tolerance:float ->
  ?sections:string list ->
  baseline:Cards_util.Json.t ->
  current:Cards_util.Json.t ->
  unit ->
  violation list
(** Diff the baseline records a run of [sections] gates — those one of
    [sections] recorded; every record when [sections] is omitted or a
    record has no ["sections"] member — against [current]: metrics
    whose value deviates by more than [tolerance] (relative, default
    [0.]), gated records a requested section no longer records, and
    [[Nothing_compared]] when no baseline metric was compared.  A
    metric missing from a current record is a violation when every
    section that recorded the baseline record ran; in a subset run it
    is not compared, since a shared record lacks the metrics its other
    sections add.  Records only in [current] are not violations — they
    appear when the baseline is refreshed. *)

val compared_metrics :
  ?sections:string list ->
  baseline:Cards_util.Json.t ->
  current:Cards_util.Json.t ->
  unit ->
  int
(** How many baseline metrics {!compare_snapshots} compares (a vanished
    record counts all of its metrics). *)

val format_violation : violation -> string
(** One line naming record, metric, baseline and observed values,
    e.g. ["REGRESSION pc-list: cycles baseline 1200 observed 1400
    (+16.67%)"]. *)

val load_file : string -> Cards_util.Json.t
(** Parse a snapshot file; raises [Sys_error] / [Json.Parse_error]. *)
