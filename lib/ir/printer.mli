(** Pretty-printing of functions and whole modules, in a textual form
    close to LLVM's.  Used by tests to snapshot transformations (e.g.,
    that pool allocation rewrote Listing 1 the way §4.1 shows). *)

val func_to_string : Func.t -> string

val module_to_string : Irmod.t -> string
