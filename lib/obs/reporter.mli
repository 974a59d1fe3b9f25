(** The single chokepoint for human-readable diagnostics.

    Library code (the runtime's fault summary, the span post-mortem)
    never writes to [stderr] directly: it writes through
    the reporter carried by the {!Sink}, which is {!null} — silent —
    unless the embedder opted in.  The CLI installs {!stderr_reporter}
    so interactive runs keep their summaries, while tests and the
    bench harness keep machine-readable output clean or capture
    reports with {!make}. *)

type t

val null : t
(** Discards everything; the {!Sink.null} reporter. *)

val stderr_reporter : t
(** Writes to [stderr] and flushes per call, so reports interleave
    sanely with the process's other output. *)

val make : (string -> unit) -> t
(** A reporter over an arbitrary consumer (test capture buffers). *)

val text : t -> string -> unit
(** Emit a (possibly multi-line) string as-is. *)

val line : t -> string -> unit
(** Emit one line, newline appended. *)

val linef : t -> ('a, unit, string, unit) format4 -> 'a
