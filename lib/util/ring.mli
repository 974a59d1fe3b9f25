(** A FIFO of [int] pairs that allocates only when it grows.

    The runtime's CLOCK hand walks one of these over (structure handle,
    object index) pairs; a [Queue] of tuples would allocate a tuple and
    a cell on every push.  Storage is two [int] arrays used as a
    power-of-two ring, doubled (order preserved) when full. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> int -> int -> unit
(** Append a pair at the back. *)

val head_fst : t -> int
(** First component of the oldest pair.
    @raise Invalid_argument when empty. *)

val head_snd : t -> int
(** Second component of the oldest pair.
    @raise Invalid_argument when empty. *)

val drop : t -> unit
(** Remove the oldest pair.
    @raise Invalid_argument when empty. *)
