(** Data-Structure Analysis (DSA), after SeaDSA / Lattner–Adve.

    A unification-based (Steensgaard-style), inter-procedural,
    context-sensitive heap analysis.  Memory objects are abstract
    {e nodes}; instructions add equality constraints; functions are
    summarized bottom-up over the call-graph SCCs, and each call site
    {e clones} the callee's heap nodes (globals excepted) into the
    caller — that cloning is what makes the analysis context-sensitive
    and lets [ds1] and [ds2] of the paper's Listing 1 (both returned by
    the same [alloc] function) be recognized as {e distinct, disjoint
    data structures} (paper Fig. 2).

    On top of the node graph the module computes everything the CaRDS
    pipeline needs:

    - the {e handle plan} of Lattner–Adve pool allocation (Algorithm 1):
      which nodes become extra handle parameters of each function
      ([argnodes]) and which get a [ds_init] in the function itself
      ([init_nodes], becoming static {e descriptors});
    - per-call-site bindings from callee handle parameters to caller
      nodes;
    - per-instruction {e instance sets}: which descriptors a given
      load/store (or call) may touch — the raw material for the
      Max Use / Max Reach remoting scores;
    - per-descriptor shape facts (element size, recursive?, pointer
      fields) feeding the prefetch-policy classification. *)

type node = int
(** Canonical node id (stable after [analyze] returns). *)

type desc_info = {
  desc_id : int;
  desc_init_func : string;      (** function whose entry runs [ds_init] *)
  desc_node : node;
  desc_elem_size : int;         (** dominant access granule, bytes *)
  desc_recursive : bool;        (** node reaches itself through pointees *)
  desc_ptr_fields : int;        (** distinct constant offsets holding pointers *)
  desc_strided : bool;          (** accessed with loop-strided addressing *)
  desc_alloc_sites : (string * int * int) list;
      (** contributing [(func, block, index)] malloc sites *)
}

type t

val analyze : Cards_ir.Irmod.t -> t
(** Run the full analysis.  The module must verify (see
    {!Cards_ir.Verify}); [main] must exist. *)

(** {2 Node graph queries} *)

val canonical : t -> node -> node

val node_of_value : t -> fname:string -> Cards_ir.Instr.value -> node option
(** The memory object a pointer value points into, if the analysis
    tracked one ([None] for immediates / untracked registers). *)

val value_is_managed : t -> fname:string -> Cards_ir.Instr.value -> bool
(** Does the value point into a heap data structure (so accesses
    through it need guards)? *)

val nodes_disjoint : t -> node -> node -> bool

val escaping : t -> fname:string -> node -> bool
(** Reachable from the function's parameters, return value, or a
    global — Algorithm 1's [escapes(n)]. *)

(** {2 Pool-allocation handle plan (Algorithm 1)} *)

val argnodes : t -> string -> node list
(** Escaping nodes of the function that require a handle parameter, in
    the canonical order used by {!callsite_bindings}.  Empty for
    [main]. *)

val init_nodes : t -> string -> (node * int) list
(** Nodes the function must [ds_init], with their descriptor ids. *)

val callsite_bindings : t -> fname:string -> bid:int -> idx:int -> node list
(** For the call instruction at [(bid, idx)], the caller-side nodes
    matching the callee's {!argnodes}, in order.  Empty for calls to
    functions with no argnodes. *)

val malloc_node : t -> fname:string -> bid:int -> idx:int -> node option
(** The node a malloc site allocates into. *)

(** {2 Descriptors (static data structures)} *)

val descriptors : t -> desc_info list
(** All static data-structure descriptors, by increasing id. *)

val n_descriptors : t -> int

val desc_info : t -> int -> desc_info

(** {2 Instance attribution (for remoting scores)} *)

val access_instances : t -> fname:string -> bid:int -> idx:int -> int list
(** Descriptor ids a load/store instruction may touch. *)

val callsite_instances : t -> fname:string -> bid:int -> idx:int -> int list
(** Descriptor ids the callee of a call instruction may touch,
    transitively, under this call site's context. *)

val func_instances : t -> string -> int list
(** Descriptor ids the function may touch transitively (its own
    accesses plus all call sites). *)

val node_descs : t -> node -> int list
(** Descriptor ids (instances) an abstract node may denote. *)

val callsite_accessed_nodes :
  t -> fname:string -> bid:int -> idx:int -> node list * int list
(** [(caller_nodes, hidden_descs)] for a call instruction: the heap
    nodes the callee may access expressed in the {e caller's} graph,
    plus descriptor ids of callee-internal structures that have no
    caller-side node.  Code versioning uses this to decide whether a
    loop containing the call can be checked with loop-invariant base
    pointers. *)
