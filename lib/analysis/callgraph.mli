(** Call graph with Tarjan SCC condensation.

    The "Max Reach" remoting policy ranks data structures by the length
    of the caller/callee chains of the functions that access them,
    computed on the SCC call graph (§4.2). *)

type t

val compute : Cards_ir.Irmod.t -> t

val callees : t -> string -> string list
(** Direct callees (module functions only; intrinsics excluded). *)

val callers : t -> string -> string list

val scc_of : t -> string -> int
(** SCC index of a function. *)

val scc_members : t -> int -> string list

val same_scc : t -> string -> string -> bool
(** Mutually recursive (or identical) functions? *)

val bottom_up : t -> string list list
(** SCCs in bottom-up (callees-first) order, each as its member list. *)

val chain_length : t -> string -> int
(** Longest caller/callee chain through the condensation starting at
    the function's SCC, counting SCCs (a leaf function = 1). *)

val depth_from_main : t -> string -> int
(** Shortest call distance from [main] ([main] = 0), or [max_int] if
    unreachable. *)

val reachable_from : t -> string -> string list
(** Functions transitively reachable (including itself). *)
