(** MiniC abstract syntax.

    MiniC is the C subset the paper's examples are written in
    (Listing 1 is valid MiniC): ints, doubles, pointers, heap structs,
    loops, functions, [malloc]/[free].  There is no address-of
    operator, so locals can live in registers, and no casts —
    [malloc]'s result adopts the type of its destination. *)

type pos = { line : int; col : int }

type ty =
  | TInt
  | TDouble
  | TVoid
  | TPtr of ty
  | TStruct of string

type binop =
  | Badd | Bsub | Bmul | Bdiv | Brem
  | Beq | Bne | Blt | Ble | Bgt | Bge
  | Band | Bor                           (** short-circuit && and || *)

type unop = Uneg | Unot

type expr = { e : expr_node; epos : pos }

and expr_node =
  | Eint of int64
  | Efloat of float
  | Enull
  | Evar of string
  | Ebin of binop * expr * expr
  | Eun of unop * expr
  | Ecall of string * expr list
  | Eindex of expr * expr               (** [a\[i\]] *)
  | Earrow of expr * string             (** [p->f] *)
  | Ederef of expr                      (** [*p] *)
  | Emalloc of expr                     (** [malloc(nbytes)] *)
  | Esizeof of ty

type lvalue =
  | Lvar of string
  | Lindex of expr * expr
  | Larrow of expr * string
  | Lderef of expr

type stmt = { s : stmt_node; spos : pos }

and stmt_node =
  | Sdecl of ty * string * expr option
  | Sassign of lvalue * expr
  | Sexpr of expr
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sfor of stmt option * expr option * stmt option * stmt
  | Sreturn of expr option
  | Sblock of stmt list
  | Sbreak
  | Scontinue
  | Sfree of expr

type struct_decl = { sname : string; sfields : (ty * string) list }

type func_decl = {
  fname : string;
  fret : ty;
  fparams : (ty * string) list;
  fbody : stmt list;
}

type global_decl = { gname : string; gty : ty; ginit : expr option }

type decl =
  | Dstruct of struct_decl
  | Dglobal of global_decl
  | Dfunc of func_decl

type program = decl list

exception Syntax_error of pos * string
(** Raised by the lexer/parser/lowering on malformed input. *)

val error : pos -> string -> 'a
(** Raise {!Syntax_error}. *)

val ty_to_string : ty -> string
