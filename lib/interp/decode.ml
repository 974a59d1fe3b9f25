(* The pre-decoded execution engine.

   The reference interpreter in machine.ml re-decides everything on
   every instruction: operand-kind matches, float-ness checks that are
   static in [reg_tys], a hash lookup plus two list maps per call, a
   site-stamp match before every instruction.  This engine follows the
   compiler's own rule — take every static decision once, off the hot
   path: at load time each function is compiled into flat arrays of
   specialized closures with

     - int vs float operand reads resolved from [reg_tys] (via the
       memoized float-ness bitmap in {!Sem}),
     - cost constants ([alu]/[mul_div]/[branch]/[call]) baked into
       each closure,
     - [Imm] converted from [Int64] once,
     - callees resolved to direct decoded-function references with
       pre-built argument/result movers (no per-call list allocation),
     - [Runtime.set_site] pre-bound only on the runtime-entering
       opcodes (the reference interpreter matches on every one),
     - guarded heap accesses routed through the runtime's fast path
       ([Runtime.read_i64_fast] & friends): a resident hit costs one
       translation-cache probe, everything else falls back to the
       canonical slow path.

   Execution allocates nothing in the steady state.  Register frames
   come from a per-function pool, a float return rides in an extra
   float slot of the frame, and no float value crosses a closure or
   module boundary: float operands are read inside the closure that
   uses them ([fget], inlined), and float loads and stores move the raw
   bytes through [Runtime.access_off] / [Runtime.acc_data].

   Semantics are the reference interpreter's, bit for bit: same trap
   messages raised at the same execution points (never at decode
   time — dead code containing an ill-typed operand or an unknown
   callee must stay inert, exactly as it does under the reference),
   same charge order, same simulated cycles, same stats and
   attribution.  test_differential proves this across the whole
   fuzz x qp x batching x fault-rate matrix. *)

module Instr = Cards_ir.Instr
module Func = Cards_ir.Func
module Types = Cards_ir.Types
module Irmod = Cards_ir.Irmod
module Runtime = Cards_runtime.Runtime
module Sink = Cards_obs.Sink
module Event = Cards_obs.Event

open Sem

(* Register files are split as in the reference interpreter.  An int
   return value leaves the frame in [ret_i], a float one in the extra
   last slot of [floats] (index [nregs]): unboxed storage, where a
   mutable float field of this mixed record would box every write. *)
type frame = {
  ints : int array;
  floats : float array;
  mutable ret_i : int;
}

type op = frame -> unit

(* A terminator returns the next block id, or a negative return code:
   [ret_int] when the frame returned an integer (in [ret_i]), [ret_flt]
   when it returned a float (in [floats.(nregs)]).  The distinction is
   dynamic because the reference interpreter's [Ret None] yields
   integer 0 even in a float-returning function. *)
let ret_int = -1
let ret_flt = -2

type dblock = { ops : op array; next : frame -> int }

type dfunc = {
  fname : string;                       (* physically f.name: the
                                           attribution ledger memoizes
                                           site strings by identity *)
  nregs : int;
  params : (Instr.reg * Types.t) list;
  mutable dblocks : dblock array;       (* filled in the second pass so
                                           mutually recursive calls
                                           resolve directly *)
  mutable pool : frame array;           (* frames free for reuse: the
                                           first [free] entries *)
  mutable free : int;
}

type t = { st : state; table : (string, dfunc) Hashtbl.t }

(* ---------- frame pool ---------- *)

(* A call takes its frame from the callee's pool and gives it back on
   return, so steady-state calls allocate nothing; the pool grows to
   the deepest recursion seen.  A reused frame is zero-filled because a
   fresh frame reads 0 / 0.0, which a register read before its first
   write observes.  A frame a trap unwinds out of is simply never given
   back.  Pools belong to the decoded program, never to module state:
   the serving layer runs programs on several domains at once. *)
let acquire df =
  let n = df.free in
  if n = 0 then
    { ints = Array.make df.nregs 0;
      floats = Array.make (df.nregs + 1) 0.0;
      ret_i = 0 }
  else begin
    df.free <- n - 1;
    let fr = df.pool.(n - 1) in
    Array.fill fr.ints 0 df.nregs 0;
    Array.fill fr.floats 0 df.nregs 0.0;
    fr
  end

let release df fr =
  let cap = Array.length df.pool in
  if df.free = cap then begin
    let grown = Array.make (max 4 (2 * cap)) fr in
    Array.blit df.pool 0 grown 0 cap;
    df.pool <- grown
  end;
  df.pool.(df.free) <- fr;
  df.free <- df.free + 1

(* ---------- operand decoding ---------- *)

let int_rd st v : frame -> int =
  match (v : Instr.value) with
  | Instr.Reg r -> fun fr -> fr.ints.(r)
  | Instr.Imm i ->
    let c = Int64.to_int i in
    fun _ -> c
  | Instr.Null -> fun _ -> 0
  | Instr.GlobalAddr g -> (
    match Hashtbl.find_opt st.globals g with
    | Some a -> fun _ -> a
    | None -> fun _ -> trap "unknown global @%s" g)
  | Instr.Fimm _ -> fun _ -> trap "float immediate in integer context"

(* A float operand, resolved at decode time.  A reader closure
   returning [float] would box every value it returns, so closures hold
   an [fsrc] and read it with [fget], which is inlined into them. *)
type fsrc =
  | Ff of int      (* float register *)
  | Fi of int      (* integer register, converted *)
  | Fk of float    (* immediate, null, or a known global's address *)
  | Fbad of string (* unknown global: traps when read *)

let fsrc st (fl : bool array) v =
  match (v : Instr.value) with
  | Instr.Reg r -> if fl.(r) then Ff r else Fi r
  | Instr.Fimm x -> Fk x
  | Instr.Imm i -> Fk (Int64.to_float i)
  | Instr.Null -> Fk 0.0
  | Instr.GlobalAddr g -> (
    match Hashtbl.find_opt st.globals g with
    | Some a -> Fk (float_of_int a)
    | None -> Fbad g)

(* Use [fget] only as a direct operand of a float primitive or store:
   bound by [let], its value would be boxed again. *)
let[@inline] fget fr = function
  | Ff r -> fr.floats.(r)
  | Fi r -> float_of_int fr.ints.(r)
  | Fk c -> c
  | Fbad g -> trap "unknown global @%s" g

let floaty (fl : bool array) v =
  match (v : Instr.value) with
  | Instr.Fimm _ -> true
  | Instr.Reg r -> fl.(r)
  | Instr.Imm _ | Instr.Null | Instr.GlobalAddr _ -> false

(* ---------- instruction decoding ---------- *)

(* Integer binops: the hot loop shapes (reg op reg, reg op imm) get
   dedicated closures with no operand indirection at all; everything
   else pays two reader calls plus the resolved operator. *)
let dec_ibin st r op a b : op =
  let rt = st.rt in
  let c =
    match (op : Instr.binop) with
    | Mul | Div | Rem -> st.cost.mul_div
    | _ -> st.cost.alu
  in
  match (op : Instr.binop), (a : Instr.value), (b : Instr.value) with
  | Add, Reg x, Reg y ->
    fun fr -> Runtime.charge rt c; fr.ints.(r) <- fr.ints.(x) + fr.ints.(y)
  | Add, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr -> Runtime.charge rt c; fr.ints.(r) <- fr.ints.(x) + k
  | Sub, Reg x, Reg y ->
    fun fr -> Runtime.charge rt c; fr.ints.(r) <- fr.ints.(x) - fr.ints.(y)
  | Sub, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr -> Runtime.charge rt c; fr.ints.(r) <- fr.ints.(x) - k
  | Mul, Reg x, Reg y ->
    fun fr -> Runtime.charge rt c; fr.ints.(r) <- fr.ints.(x) * fr.ints.(y)
  | Mul, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr -> Runtime.charge rt c; fr.ints.(r) <- fr.ints.(x) * k
  | And, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr -> Runtime.charge rt c; fr.ints.(r) <- fr.ints.(x) land k
  | _ ->
    let fa = int_rd st a and fb = int_rd st b in
    let opf = ibin_fn op in
    fun fr -> Runtime.charge rt c; fr.ints.(r) <- opf (fa fr) (fb fr)

let dec_icmp st r cop a b : op =
  let rt = st.rt in
  let c = st.cost.alu in
  match (cop : Instr.cmpop), (a : Instr.value), (b : Instr.value) with
  | Lt, Reg x, Reg y ->
    fun fr ->
      Runtime.charge rt c;
      fr.ints.(r) <- (if fr.ints.(x) < fr.ints.(y) then 1 else 0)
  | Lt, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      Runtime.charge rt c;
      fr.ints.(r) <- (if fr.ints.(x) < k then 1 else 0)
  | Eq, Reg x, Imm i ->
    let k = Int64.to_int i in
    fun fr ->
      Runtime.charge rt c;
      fr.ints.(r) <- (if fr.ints.(x) = k then 1 else 0)
  | _ ->
    let fa = int_rd st a and fb = int_rd st b in
    let opf = icmp_fn cop in
    fun fr ->
      Runtime.charge rt c;
      fr.ints.(r) <- (if opf (fa fr) (fb fr) then 1 else 0)

(* Float binops: reg op reg gets a dedicated closure per operator, as
   in [dec_ibin]; other shapes read their operands through [fget].
   OCaml evaluates the right operand first, as the reference's
   [exec_fbin] application does, so a trapping operand pair traps on
   the same one. *)
let dec_fbin st r op a b : op =
  let rt = st.rt in
  let c = st.cost.alu in
  match (op : Instr.binop), a, b with
  | Fadd, Ff x, Ff y ->
    fun fr ->
      Runtime.charge rt c;
      fr.floats.(r) <- fr.floats.(x) +. fr.floats.(y)
  | Fadd, _, _ ->
    fun fr -> Runtime.charge rt c; fr.floats.(r) <- fget fr a +. fget fr b
  | Fsub, Ff x, Ff y ->
    fun fr ->
      Runtime.charge rt c;
      fr.floats.(r) <- fr.floats.(x) -. fr.floats.(y)
  | Fsub, _, _ ->
    fun fr -> Runtime.charge rt c; fr.floats.(r) <- fget fr a -. fget fr b
  | Fmul, Ff x, Ff y ->
    fun fr ->
      Runtime.charge rt c;
      fr.floats.(r) <- fr.floats.(x) *. fr.floats.(y)
  | Fmul, _, _ ->
    fun fr -> Runtime.charge rt c; fr.floats.(r) <- fget fr a *. fget fr b
  | Fdiv, Ff x, Ff y ->
    fun fr ->
      Runtime.charge rt c;
      fr.floats.(r) <- fr.floats.(x) /. fr.floats.(y)
  | Fdiv, _, _ ->
    fun fr -> Runtime.charge rt c; fr.floats.(r) <- fget fr a /. fget fr b
  | (Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr), _, _ ->
    invalid_arg "Decode.dec_fbin: integer operator"

let dec_fcmp st r cop a b : op =
  let rt = st.rt in
  let c = st.cost.alu in
  let set fr v = fr.ints.(r) <- (if v then 1 else 0) in
  match (cop : Instr.cmpop) with
  | Eq -> fun fr -> Runtime.charge rt c; set fr (fget fr a = fget fr b)
  | Ne -> fun fr -> Runtime.charge rt c; set fr (fget fr a <> fget fr b)
  | Lt -> fun fr -> Runtime.charge rt c; set fr (fget fr a < fget fr b)
  | Le -> fun fr -> Runtime.charge rt c; set fr (fget fr a <= fget fr b)
  | Gt -> fun fr -> Runtime.charge rt c; set fr (fget fr a > fget fr b)
  | Ge -> fun fr -> Runtime.charge rt c; set fr (fget fr a >= fget fr b)

(* Forward reference: the Call decoder needs to execute a decoded
   function, and execution needs decoded blocks.  Tied below. *)
let exec_ref : (state -> dfunc -> frame -> int) ref =
  ref (fun _ _ _ -> assert false)

let dec_call st fl (ropt : Instr.reg option) name args table : op =
  let rt = st.rt in
  let c = st.cost.call in
  match name with
  | "print_int" -> (
    match args with
    | a0 :: _ ->
      let rd = int_rd st a0 in
      fun fr ->
        Runtime.charge rt c;
        Buffer.add_string st.out (string_of_int (rd fr));
        Buffer.add_char st.out '\n'
    | [] -> fun _ -> Runtime.charge rt c; failwith "hd")
  | "print_float" -> (
    match args with
    | a0 :: _ ->
      let src = fsrc st fl a0 in
      fun fr ->
        Runtime.charge rt c;
        Buffer.add_string st.out (Printf.sprintf "%.6g" (fget fr src));
        Buffer.add_char st.out '\n'
    | [] -> fun _ -> Runtime.charge rt c; failwith "hd")
  | "clock" -> (
    match ropt with
    | Some r -> fun fr -> Runtime.charge rt c; fr.ints.(r) <- Runtime.now rt
    | None -> fun _ -> Runtime.charge rt c)
  | "abort" -> fun _ -> Runtime.charge rt c; trap "abort() called"
  | _ -> (
    match Hashtbl.find_opt table name with
    | None -> fun _ -> Runtime.charge rt c; trap "call to unknown function %s" name
    | Some df when List.length df.params <> List.length args ->
      (* The reference's [List.map2] evaluates argument operands for
         the common prefix before noticing the length mismatch, so an
         ill-typed early argument traps first.  Reproduce that. *)
      let rec prefix ps vs =
        match ps, vs with
        | (_, ty) :: ps', v :: vs' ->
          (match (ty : Types.t) with
           | Types.F64 ->
             let src = fsrc st fl v in
             (fun fr -> ignore (fget fr src)) :: prefix ps' vs'
           | _ ->
             let rd = int_rd st v in
             (fun fr -> ignore (rd fr)) :: prefix ps' vs')
        | _ -> []
      in
      let evals = Array.of_list (prefix df.params args) in
      fun fr ->
        Runtime.charge rt c;
        Array.iter (fun e -> e fr) evals;
        trap "arity mismatch calling %s" name
    | Some df ->
      (* Argument movers: one closure per parameter, reading from the
         caller frame and writing the callee register directly — the
         reference's per-call [List.map2] + argv list disappears. *)
      let movers =
        Array.of_list
          (List.map2
             (fun (pr, ty) v ->
               match (ty : Types.t) with
               | Types.F64 -> (
                 match fsrc st fl v with
                 | Ff x -> fun fr cf -> cf.floats.(pr) <- fr.floats.(x)
                 | src -> fun fr cf -> cf.floats.(pr) <- fget fr src)
               | _ ->
                 let rd = int_rd st v in
                 fun fr cf -> cf.ints.(pr) <- rd fr)
             df.params args)
      in
      let nmovers = Array.length movers in
      let enter fr =
        Runtime.charge rt c;
        let cf = acquire df in
        for i = 0 to nmovers - 1 do
          movers.(i) fr cf
        done;
        cf
      in
      let fret = df.nregs in
      match ropt with
      | None ->
        fun fr ->
          let cf = enter fr in
          ignore (!exec_ref st df cf);
          release df cf
      | Some r when fl.(r) ->
        fun fr ->
          let cf = enter fr in
          let code = !exec_ref st df cf in
          fr.floats.(r) <-
            (if code = ret_flt then cf.floats.(fret)
             else float_of_int cf.ret_i);
          release df cf
      | Some r ->
        fun fr ->
          let cf = enter fr in
          let code = !exec_ref st df cf in
          fr.ints.(r) <-
            (if code = ret_flt then int_of_float cf.floats.(fret)
             else cf.ret_i);
          release df cf)

let dec_instr st (f : Func.t) fl table ~bid ~idx (ins : Instr.instr) : op =
  let rt = st.rt in
  let fn = f.name in
  (* [Runtime.set_site] is pre-bound only on the opcodes that can enter
     the runtime, mirroring the reference interpreter's stamp match —
     but resolved at decode time instead of per instruction. *)
  match ins with
  | Instr.Bin (r, op, a, b) ->
    if Instr.is_float_binop op then
      dec_fbin st r op (fsrc st fl a) (fsrc st fl b)
    else dec_ibin st r op a b
  | Instr.Cmp (r, cop, a, b) ->
    if floaty fl a || floaty fl b then
      dec_fcmp st r cop (fsrc st fl a) (fsrc st fl b)
    else dec_icmp st r cop a b
  | Instr.Mov (r, v) ->
    let c = st.cost.alu in
    if fl.(r) then begin
      match fsrc st fl v with
      | Ff x -> fun fr -> Runtime.charge rt c; fr.floats.(r) <- fr.floats.(x)
      | src -> fun fr -> Runtime.charge rt c; fr.floats.(r) <- fget fr src
    end
    else begin
      match (v : Instr.value) with
      | Instr.Reg x -> fun fr -> Runtime.charge rt c; fr.ints.(r) <- fr.ints.(x)
      | Instr.Imm i ->
        let k = Int64.to_int i in
        fun fr -> Runtime.charge rt c; fr.ints.(r) <- k
      | _ ->
        let rd = int_rd st v in
        fun fr -> Runtime.charge rt c; fr.ints.(r) <- rd fr
    end
  | Instr.I2f (r, v) ->
    let c = st.cost.alu in
    let rd = int_rd st v in
    fun fr -> Runtime.charge rt c; fr.floats.(r) <- float_of_int (rd fr)
  | Instr.F2i (r, v) ->
    let c = st.cost.alu in
    let src = fsrc st fl v in
    fun fr -> Runtime.charge rt c; fr.ints.(r) <- int_of_float (fget fr src)
  | Instr.Load (r, ty, addr) ->
    let rd = int_rd st addr in
    if Types.equal ty Types.F64 then
      fun fr ->
        Runtime.set_site rt ~fn ~block:bid ~instr:idx;
        let off = Runtime.access_off rt (rd fr) ~write:false in
        fr.floats.(r) <-
          Int64.float_of_bits (Bytes.get_int64_le (Runtime.acc_data rt) off)
    else
      fun fr ->
        Runtime.set_site rt ~fn ~block:bid ~instr:idx;
        fr.ints.(r) <- Runtime.read_i64_fast rt (rd fr)
  | Instr.Store (ty, addr, v) ->
    let ra = int_rd st addr in
    if Types.equal ty Types.F64 then begin
      let src = fsrc st fl v in
      fun fr ->
        Runtime.set_site rt ~fn ~block:bid ~instr:idx;
        let a = ra fr in
        (* the value is read before the access is accounted, as in the
           reference; as raw bits it stays unboxed *)
        let bits = Int64.bits_of_float (fget fr src) in
        let off = Runtime.access_off rt a ~write:true in
        Bytes.set_int64_le (Runtime.acc_data rt) off bits
    end
    else begin
      let rv = int_rd st v in
      fun fr ->
        Runtime.set_site rt ~fn ~block:bid ~instr:idx;
        let a = ra fr in
        Runtime.write_i64_fast rt a (rv fr)
    end
  | Instr.Gep (r, base, idx_v, scale) -> (
    let c = st.cost.alu in
    match (base : Instr.value), (idx_v : Instr.value) with
    | Instr.Reg x, Instr.Reg y ->
      fun fr ->
        Runtime.charge rt c;
        fr.ints.(r) <- fr.ints.(x) + (fr.ints.(y) * scale)
    | _ ->
      let rb = int_rd st base and ri = int_rd st idx_v in
      fun fr ->
        Runtime.charge rt c;
        fr.ints.(r) <- rb fr + (ri fr * scale))
  | Instr.Malloc (r, size) ->
    let rs = int_rd st size in
    fun fr ->
      Runtime.set_site rt ~fn ~block:bid ~instr:idx;
      fr.ints.(r) <- Runtime.ds_alloc rt ~handle:0 ~size:(rs fr)
  | Instr.Free v ->
    let rd = int_rd st v in
    fun fr -> Runtime.free rt (rd fr)
  | Instr.Guard (k, addr) ->
    let write = k = Instr.Gwrite in
    let rd = int_rd st addr in
    fun fr ->
      Runtime.set_site rt ~fn ~block:bid ~instr:idx;
      Runtime.guard rt ~write (rd fr)
  | Instr.DsInit (r, sid) ->
    fun fr ->
      Runtime.set_site rt ~fn ~block:bid ~instr:idx;
      fr.ints.(r) <- Runtime.ds_init rt ~sid
  | Instr.DsAlloc (r, size, h) ->
    let rh = int_rd st h and rs = int_rd st size in
    fun fr ->
      Runtime.set_site rt ~fn ~block:bid ~instr:idx;
      fr.ints.(r) <- Runtime.ds_alloc rt ~handle:(rh fr) ~size:(rs fr)
  | Instr.LoopCheck (r, bases) ->
    let rds = Array.of_list (List.map (int_rd st) bases) in
    (* One scratch array per site: nothing runs between filling it and
       the check, so recursion cannot interleave two uses. *)
    let addrs = Array.make (Array.length rds) 0 in
    fun fr ->
      Runtime.set_site rt ~fn ~block:bid ~instr:idx;
      (* left-to-right, as the reference's [List.map] evaluates *)
      for i = 0 to Array.length rds - 1 do
        addrs.(i) <- rds.(i) fr
      done;
      fr.ints.(r) <- (if Runtime.loop_check rt addrs then 1 else 0)
  | Instr.Prefetch _ ->
    let c = st.cost.alu in
    fun _ -> Runtime.charge rt c
  | Instr.Call (ropt, name, args) -> dec_call st fl ropt name args table

let dec_term st (f : Func.t) fl ~bid (term : Instr.term) : frame -> int =
  let rt = st.rt in
  match term with
  | Instr.Br target ->
    let c = st.cost.branch in
    fun _ -> Runtime.charge rt c; target
  | Instr.Cbr (v, bt, bf) ->
    let c = st.cost.branch in
    if floaty fl v then begin
      let src = fsrc st fl v in
      fun fr ->
        Runtime.charge rt c;
        if fget fr src <> 0.0 then bt else bf
    end
    else begin
      match (v : Instr.value) with
      | Instr.Reg r ->
        fun fr ->
          Runtime.charge rt c;
          if fr.ints.(r) <> 0 then bt else bf
      | _ ->
        let rd = int_rd st v in
        fun fr ->
          Runtime.charge rt c;
          if rd fr <> 0 then bt else bf
    end
  | Instr.Ret None -> fun fr -> fr.ret_i <- 0; ret_int
  | Instr.Ret (Some v) ->
    if Types.equal f.ret Types.F64 then begin
      let fret = Func.nregs f in
      match fsrc st fl v with
      | Ff x -> fun fr -> fr.floats.(fret) <- fr.floats.(x); ret_flt
      | src -> fun fr -> fr.floats.(fret) <- fget fr src; ret_flt
    end
    else begin
      let rd = int_rd st v in
      fun fr -> fr.ret_i <- rd fr; ret_int
    end
  | Instr.Unreachable ->
    let fname = f.name in
    fun _ -> trap "reached unreachable in %s:L%d" fname bid

(* ---------- execution ---------- *)

(* A loop, not a local recursive function: that would be a closure
   allocated on every call. *)
let run_blocks st df fr =
  let fuel = st.fuel in
  let bid = ref 0 in
  while !bid >= 0 do
    let b = df.dblocks.(!bid) in
    let ops = b.ops in
    for i = 0 to Array.length ops - 1 do
      st.executed <- st.executed + 1;
      if st.executed > fuel then
        trap "fuel exhausted (%d instructions)" fuel;
      ops.(i) fr
    done;
    bid := b.next fr
  done;
  !bid

(* Call-stack spans for the Chrome-trace exporter, exactly as the
   reference engine emits them: B/E pairs on the interpreter thread; a
   [Trap] unwinds without the exit event. *)
let exec st df fr =
  enter_frame st;
  let code =
    if Sink.tracing st.obs then begin
      Sink.emit st.obs
        (Event.make ~cycle:(Runtime.now st.rt) ~ds:0 ~obj:0
           (Event.Call_enter { fn = df.fname }));
      let code = run_blocks st df fr in
      Sink.emit st.obs
        (Event.make ~cycle:(Runtime.now st.rt) ~ds:0 ~obj:0
           (Event.Call_exit { fn = df.fname }));
      code
    end
    else run_blocks st df fr
  in
  st.depth <- st.depth - 1;
  code

let () = exec_ref := exec

(* ---------- load-time decoding ---------- *)

let dec_func st table (f : Func.t) =
  let fl = float_regs st f in
  Array.map
    (fun (b : Func.block) ->
      { ops =
          Array.mapi
            (fun idx ins -> dec_instr st f fl table ~bid:b.bid ~idx ins)
            b.instrs;
        next = dec_term st f fl ~bid:b.bid b.term })
    f.blocks

let prepare st (m : Irmod.t) =
  let table = Hashtbl.create 16 in
  (* Two passes so calls — including mutual recursion and forward
     references — resolve to direct decoded-function records.  As in
     the reference's function table, a duplicated name resolves to its
     last definition. *)
  List.iter
    (fun (f : Func.t) ->
      Hashtbl.replace table f.name
        { fname = f.name; nregs = Func.nregs f; params = f.params;
          dblocks = [||]; pool = [||]; free = 0 })
    m.funcs;
  List.iter
    (fun (f : Func.t) ->
      let df = Hashtbl.find table f.name in
      (* decode each definition once; for duplicated names the last
         decode wins, matching the reference's lookup *)
      df.dblocks <- dec_func st table f)
    m.funcs;
  { st; table }

(* Top-level entry: assign [argv] arguments with the reference
   interpreter's conversion rules, then run. *)
let exec_argv t df (args : argv list) : argv =
  t.st.depth <- 0;
  let fr = acquire df in
  (try
     List.iter2
       (fun (r, ty) a ->
         match (ty : Types.t), a with
         | Types.F64, AF x -> fr.floats.(r) <- x
         | Types.F64, AI x -> fr.floats.(r) <- float_of_int x
         | _, AI x -> fr.ints.(r) <- x
         | _, AF x -> fr.ints.(r) <- int_of_float x)
       df.params args
   with Invalid_argument _ -> trap "arity mismatch calling %s" df.fname);
  let code = exec t.st df fr in
  let res = if code = ret_flt then AF fr.floats.(df.nregs) else AI fr.ret_i in
  release df fr;
  res

let run_main t =
  match Hashtbl.find_opt t.table "main" with
  | None -> trap "module has no main"
  | Some df -> exec_argv t df []

let run_function t name args =
  match Hashtbl.find_opt t.table name with
  | None -> trap "no function %s" name
  | Some df -> exec_argv t df args
