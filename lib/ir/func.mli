(** Functions and basic blocks.

    A function is an array of basic blocks; block 0 is the entry.
    Registers [0 .. arity-1] hold the parameters on entry.  [reg_tys]
    records the static type of every register — the frontend fills it
    in, and the data-structure analysis consults it to know which
    registers carry pointers. *)

type block = {
  bid : int;                  (** index within [blocks]; stable id *)
  instrs : Instr.instr array;
  term : Instr.term;
}

type t = {
  name : string;
  params : (Instr.reg * Types.t) list;  (** in order; regs are 0.. *)
  ret : Types.t;
  reg_tys : Types.t array;    (** type of each virtual register *)
  blocks : block array;
}

val nregs : t -> int
val arity : t -> int
val block : t -> int -> block

val entry : t -> block

val iter_instrs : t -> (int -> int -> Instr.instr -> unit) -> unit
(** [iter_instrs f visit] calls [visit bid idx instr] for every
    instruction in block order. *)

val fold_instrs : t -> ('a -> int -> int -> Instr.instr -> 'a) -> 'a -> 'a

val successors : t -> int -> int list
(** Successor block ids of a block. *)

val predecessors : t -> int list array
(** For each block id, the list of predecessor block ids. *)

val float_regs : t -> bool array
(** Per-register float-ness ([reg_tys] folded to a flat bitmap).
    Decode-time metadata for the interpreters: operand float-ness is
    static, so both execution engines resolve it once per function
    instead of per access. *)

val map_blocks : t -> (block -> block) -> t
