type proto_block = {
  mutable rev_instrs : Instr.instr list;
  mutable pterm : Instr.term option;
}

type t = {
  fname : string;
  fparams : (Instr.reg * Types.t) list;
  param_names : (string * Instr.reg) list;
  fret : Types.t;
  mutable tys : Types.t list; (* reversed: register types *)
  mutable count : int;
  mutable blocks : proto_block array;
  mutable nblocks : int;
  mutable cursor : int;
}

let fresh t ty =
  let r = t.count in
  t.count <- r + 1;
  t.tys <- ty :: t.tys;
  r

let add_block t =
  let b = { rev_instrs = []; pterm = None } in
  if t.nblocks = Array.length t.blocks then begin
    let cap = max 8 (2 * Array.length t.blocks) in
    let nb = Array.make cap b in
    Array.blit t.blocks 0 nb 0 t.nblocks;
    t.blocks <- nb
  end;
  t.blocks.(t.nblocks) <- b;
  t.nblocks <- t.nblocks + 1;
  t.nblocks - 1

let create ~name ~params ~ret =
  let t =
    { fname = name; fparams = []; param_names = []; fret = ret;
      tys = []; count = 0; blocks = [||]; nblocks = 0; cursor = 0 }
  in
  let regs = List.map (fun (pname, ty) -> (pname, fresh t ty, ty)) params in
  let t =
    { t with
      fparams = List.map (fun (_, r, ty) -> (r, ty)) regs;
      param_names = List.map (fun (pname, r, _) -> (pname, r)) regs }
  in
  let entry = add_block t in
  t.cursor <- entry;
  t

let name t = t.fname

let param t pname = Instr.Reg (List.assoc pname t.param_names)

let reg_ty t r =
  let tys = Array.of_list (List.rev t.tys) in
  tys.(r)

let value_ty t = function
  | Instr.Reg r -> reg_ty t r
  | Instr.Imm _ -> Types.I64
  | Instr.Fimm _ -> Types.F64
  | Instr.Null -> Types.Ptr Types.I64
  | Instr.GlobalAddr _ -> Types.Ptr Types.I64

let new_block t = add_block t

let set_block t b =
  if b < 0 || b >= t.nblocks then invalid_arg "Builder.set_block: no such block";
  t.cursor <- b

let current_block t = t.cursor

let emit t ins =
  let b = t.blocks.(t.cursor) in
  if b.pterm <> None then
    invalid_arg
      (Printf.sprintf "Builder.emit: block L%d of %s already sealed" t.cursor t.fname);
  b.rev_instrs <- ins :: b.rev_instrs

let bin t op a b =
  let ty = if Instr.is_float_binop op then Types.F64 else
      (* Pointer arithmetic through Add keeps pointer-ness. *)
      match op, value_ty t a with
      | (Instr.Add | Instr.Sub), (Types.Ptr _ as pty) -> pty
      | _ -> Types.I64
  in
  let r = fresh t ty in
  emit t (Instr.Bin (r, op, a, b));
  Instr.Reg r

let cmp t op a b =
  let r = fresh t Types.I64 in
  emit t (Instr.Cmp (r, op, a, b));
  Instr.Reg r

let mov t v =
  let r = fresh t (value_ty t v) in
  emit t (Instr.Mov (r, v));
  Instr.Reg r

let i2f t v =
  let r = fresh t Types.F64 in
  emit t (Instr.I2f (r, v));
  Instr.Reg r

let f2i t v =
  let r = fresh t Types.I64 in
  emit t (Instr.F2i (r, v));
  Instr.Reg r

let load t ty addr =
  let r = fresh t ty in
  emit t (Instr.Load (r, ty, addr));
  Instr.Reg r

let store t ty ~addr v = emit t (Instr.Store (ty, addr, v))

let gep t ~ty base idx scale =
  let r = fresh t ty in
  emit t (Instr.Gep (r, base, idx, scale));
  Instr.Reg r

let malloc t ~ty size =
  let r = fresh t ty in
  emit t (Instr.Malloc (r, size));
  Instr.Reg r

let call t ~ty fname args =
  let r = fresh t ty in
  emit t (Instr.Call (Some r, fname, args));
  Instr.Reg r

let call_void t fname args = emit t (Instr.Call (None, fname, args))

let seal t term =
  let b = t.blocks.(t.cursor) in
  if b.pterm <> None then
    invalid_arg
      (Printf.sprintf "Builder: block L%d of %s already sealed" t.cursor t.fname);
  b.pterm <- Some term

let br t target = seal t (Instr.Br target)
let cbr t v bt bf = seal t (Instr.Cbr (v, bt, bf))
let ret t v = seal t (Instr.Ret v)

let sealed t b = t.blocks.(b).pterm <> None

let finish t =
  let blocks =
    Array.init t.nblocks (fun i ->
        let pb = t.blocks.(i) in
        match pb.pterm with
        | None ->
          invalid_arg
            (Printf.sprintf "Builder.finish: block L%d of %s not terminated" i t.fname)
        | Some term ->
          { Func.bid = i; instrs = Array.of_list (List.rev pb.rev_instrs); term })
  in
  { Func.name = t.fname; params = t.fparams; ret = t.fret;
    reg_tys = Array.of_list (List.rev t.tys); blocks }

(* A canonical counted loop:
     header: iv < limit ? body : exit
     body:   ... ; iv += step; br header
   The induction variable is a dedicated register updated in place,
   which is the pattern Indvars recognizes. *)
let build_for t ~init ~limit ~step body =
  let iv = fresh t Types.I64 in
  emit t (Instr.Mov (iv, init));
  let header = new_block t in
  let bodyb = new_block t in
  let exitb = new_block t in
  br t header;
  set_block t header;
  let c = cmp t Instr.Lt (Instr.Reg iv) limit in
  cbr t c bodyb exitb;
  set_block t bodyb;
  body t (Instr.Reg iv);
  emit t (Instr.Bin (iv, Instr.Add, Instr.Reg iv, Instr.Imm (Int64.of_int step)));
  br t header;
  set_block t exitb

let build_if t c then_ else_ =
  let bt = new_block t in
  let bf = new_block t in
  let join = new_block t in
  cbr t c bt bf;
  set_block t bt;
  then_ t;
  if not (sealed t (current_block t)) then br t join;
  set_block t bf;
  else_ t;
  if not (sealed t (current_block t)) then br t join;
  set_block t join
