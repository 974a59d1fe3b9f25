(** One-call MiniC frontend: lex, parse, lower, verify. *)

val compile : string -> Irmod.t
(** [compile source] returns a verified IR module.
    @raise Ast.Syntax_error on malformed/ill-typed source.
    @raise Failure if lowering produced ill-formed IR (a frontend bug). *)
