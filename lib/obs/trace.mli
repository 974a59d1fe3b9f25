(** Bounded ring buffer of trace events.

    Tracing a long run must not grow memory without bound: the ring
    keeps the {e newest} [capacity] events and counts what it dropped,
    so a crash or an interesting endgame is always covered by the tail
    of the trace. *)

type t

val create : capacity:int -> t
(** [capacity] is clamped to ≥ 1. *)

val add : t -> Event.t -> unit
(** O(1); overwrites the oldest event when full. *)

val to_list : t -> Event.t list
(** Retained events, oldest first. *)

val iter : (Event.t -> unit) -> t -> unit
(** Retained events, oldest first, without building a list. *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events evicted to make room (total added − retained). *)
