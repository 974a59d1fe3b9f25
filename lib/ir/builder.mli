(** Imperative construction of IR functions.

    Used by the MiniC lowering pass and by tests/workloads that build IR
    directly.  A builder owns one function under construction: create
    blocks, position the cursor, emit instructions, seal blocks with
    terminators, then [finish]. *)

type t

val create : name:string -> params:(string * Types.t) list -> ret:Types.t -> t
(** Starts a function.  Parameters get registers [0..]; an entry block
    (id 0) is created and selected. *)

val name : t -> string

val param : t -> string -> Instr.value
(** Value of a named parameter. @raise Not_found if unknown. *)

val fresh : t -> Types.t -> Instr.reg
(** Allocate a new virtual register of the given type. *)

val reg_ty : t -> Instr.reg -> Types.t

val value_ty : t -> Instr.value -> Types.t
(** Static type of a value ([Imm] is [I64], [Null] is [Ptr I64], …). *)

val new_block : t -> int
(** Create an (unterminated) block and return its id; cursor unmoved. *)

val set_block : t -> int -> unit
(** Move the emission cursor to the end of the given block. *)

val current_block : t -> int

val emit : t -> Instr.instr -> unit
(** Append a raw instruction at the cursor.
    @raise Invalid_argument if the current block is already sealed. *)

(** {2 Convenience emitters} — allocate a result register, emit, and
    return the result as a value. *)

val bin : t -> Instr.binop -> Instr.value -> Instr.value -> Instr.value
val cmp : t -> Instr.cmpop -> Instr.value -> Instr.value -> Instr.value
val mov : t -> Instr.value -> Instr.value
val i2f : t -> Instr.value -> Instr.value
val f2i : t -> Instr.value -> Instr.value
val load : t -> Types.t -> Instr.value -> Instr.value
val store : t -> Types.t -> addr:Instr.value -> Instr.value -> unit
val gep : t -> ty:Types.t -> Instr.value -> Instr.value -> int -> Instr.value
(** [gep b ~ty base idx scale] — [ty] is the type of the *result*. *)

val malloc : t -> ty:Types.t -> Instr.value -> Instr.value
(** [malloc b ~ty size] — [ty] is the pointer type of the result. *)

val call : t -> ty:Types.t -> string -> Instr.value list -> Instr.value
(** Call with a result (of type [ty]). *)

val call_void : t -> string -> Instr.value list -> unit

(** {2 Terminators} — seal the current block. *)

val br : t -> int -> unit
val cbr : t -> Instr.value -> int -> int -> unit
val ret : t -> Instr.value option -> unit

val sealed : t -> int -> bool
(** Has the given block been terminated? *)

val finish : t -> Func.t
(** Freeze into an immutable {!Func.t}.
    @raise Invalid_argument if any block lacks a terminator. *)

(** {2 Structured control-flow helpers} *)

val build_for :
  t ->
  init:Instr.value ->
  limit:Instr.value ->
  step:int ->
  (t -> Instr.value -> unit) ->
  unit
(** [build_for b ~init ~limit ~step body] emits
    [for (i = init; i < limit; i += step) body(i)] around the cursor,
    leaving the cursor in the exit block. *)

val build_if :
  t -> Instr.value -> (t -> unit) -> (t -> unit) -> unit
(** [build_if b c then_ else_]. *)
