(** Per-data-structure prefetchers (paper §4.2, "Prefetching Policy
    Selection"): a majority stride-based prefetcher, a greedy recursive
    prefetcher, and a jump-pointer prefetcher.

    A prefetcher observes the object-index stream of one data structure
    and writes the objects to fetch ahead into a {!Targets} buffer.  Greedy and jump-pointer
    prefetchers may target other structures (a node can point into a
    different pool), so each candidate carries a handle.

    - {e Stride}: keeps a small window of recent index deltas; when a
      majority agree it locks that stride and fetches [depth] objects
      ahead.  At unit stride it emits {e contiguous runs}: the ahead
      window is topped up in ~[depth]-object chunks, so a batching
      fabric can carry a whole chunk in one request instead of paying
      the protocol cost per object.
    - {e Greedy recursive}: when an object is (re)fetched, scans its
      contents for tagged pointers and fetches their objects — one
      level of fan-out, good for trees.
    - {e Jump pointer}: remembers, per object, the object the traversal
      visited [jump] steps later, and fetches through that table —
      effective for linear chains from the second traversal on. *)

(** A reusable candidate buffer: one (handle, object) pair per
    object.  Handle [0] means "the structure being accessed".  The
    runtime owns one and hands it to every {!on_access} call, so
    producing, filtering and ordering candidates allocates nothing once
    the buffer has reached its working size. *)
module Targets : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val length : t -> int

  val ds : t -> int -> int
  (** Handle of entry [i].  @raise Invalid_argument out of range. *)

  val obj : t -> int -> int
  (** Object index of entry [i].  @raise Invalid_argument out of range. *)

  val push : t -> ds:int -> obj:int -> unit

  val set : t -> int -> ds:int -> obj:int -> unit
  (** Overwrite entry [i] (for in-place filtering).
      @raise Invalid_argument out of range. *)

  val truncate : t -> int -> unit
  (** Keep the first [n] entries (no-op when [n >= length]). *)

  val sort_uniq : t -> unit
  (** Sort by (handle, object) and drop duplicates in place: the same
      sequence [List.sort_uniq compare] returns for the pairs. *)
end

type t

val stride : depth:int -> t
val greedy : fanout:int -> t
val jump : jump:int -> depth:int -> t

val of_class : Static_info.prefetch_class -> depth:int -> t option
(** The paper's class→prefetcher mapping; [No_prefetch] gives [None]. *)

val on_access :
  t -> Targets.t -> obj:int -> missed:bool -> scan:(int -> Targets.t -> unit) ->
  unit
(** Feed one access and replace the buffer's contents with the
    prefetch candidates, one entry per object (possibly already
    resident — the runtime filters).  A stride window is written as its
    ascending run of objects; jump-pointer hops come farthest first.
    [scan obj buf] appends the structures and objects [obj]'s pointer
    slots name, in slot order; only the greedy prefetcher calls it, and
    only on misses.  [obj] must be non-negative for the jump
    prefetcher. *)

val kind_name : t -> string

val calls : t -> int
(** Accesses observed (observability counter). *)

val targets_emitted : t -> int
(** Prefetch candidate objects emitted over the prefetcher's
    lifetime — before the runtime's residency/window filtering. *)
