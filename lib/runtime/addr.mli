(** Tagged-pointer encoding (paper §4.2, Listing 2 / Fig. 3).

    CaRDS appends the data-structure handle to the non-canonical bits
    of every pointer it hands out.  On x86-64 those are bits 48–63; in
    this simulator pointers are 63-bit OCaml ints, so the handle lives
    in bits 47–62 and the byte offset within the structure's pool in
    bits 0–46.  Handle value 0 marks unmanaged memory (globals and
    untracked allocations), making the custody check a single shift:
    [addr lsr offset_bits <> 0]. *)

val offset_bits : int
(** 47 *)

val max_handle : int
(** Largest encodable data-structure handle. *)

val encode : ds:int -> offset:int -> int
(** [encode ~ds ~offset] tags a pool offset with handle [ds] (≥ 1).
    @raise Invalid_argument if out of range. *)

val unmanaged : offset:int -> int
(** An untagged (handle 0) address. *)

val is_managed : int -> bool
(** The custody check. *)

val ds_of : int -> int
(** Handle of a managed address (≥ 1).
    @raise Invalid_argument on unmanaged addresses. *)

val offset_of : int -> int
(** Pool offset (valid for managed and unmanaged addresses alike). *)
