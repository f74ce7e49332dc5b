module Value = Planp_runtime.Value
module Prim = Planp_runtime.Prim

type try_frame = { handlers : (string * int) list; saved_sp : int }

(* One growable value arena holds every frame of an execution: the layout
   is [caller frames... | locals | operand stack].  A call carves the
   callee's frame out of the same arena — its arguments, already on the
   operand stack, become its first locals in place — so steady-state
   execution allocates nothing per call.

   The arena is pooled (one slot) and reused across packets.  If a packet
   execution somehow re-enters the VM while the pooled arena is busy, the
   inner execution just pays for a fresh arena — correctness never depends
   on the pool. *)
type arena = { mutable data : Value.t array; mutable sp : int }

(* All per-execution mutable scratch — the profiling cells (mirroring
   Planp_runtime.Interp: bare increments in the dispatch loop, read as
   per-packet deltas by the bytecode backend), the pooled arena, and the
   primitive-argument buffers — lives in one domain-local record so the
   VM is race-free under [Netsim.Par_engine --domains k]. *)
type domain_state = {
  mutable d_instrs : int;
  mutable d_prims : int;
  d_pooled : arena;
  mutable d_pool_busy : bool;
  (* Per-arity scratch buffers for primitive arguments.  The Prim.impl
     contract (see prim.mli) lets us reuse them: implementations read
     their arguments before any world effect and never retain the
     array. *)
  d_scratch : Value.t array array;
}

let dls_key =
  Domain.DLS.new_key (fun () ->
      {
        d_instrs = 0;
        d_prims = 0;
        d_pooled = { data = Array.make 256 Value.Vunit; sp = 0 };
        d_pool_busy = false;
        d_scratch = Array.init 9 (fun n -> Array.make n Value.Vunit);
      })

let profile () =
  let st = Domain.DLS.get dls_key in
  (st.d_instrs, st.d_prims)

let ensure arena needed =
  if needed > Array.length arena.data then begin
    let cap = ref (2 * Array.length arena.data) in
    while needed > !cap do
      cap := 2 * !cap
    done;
    let grown = Array.make !cap Value.Vunit in
    Array.blit arena.data 0 grown 0 arena.sp;
    arena.data <- grown
  end

let push arena value =
  if arena.sp = Array.length arena.data then ensure arena (arena.sp + 1);
  Array.unsafe_set arena.data arena.sp value;
  arena.sp <- arena.sp + 1

let take_arena st =
  if st.d_pool_busy then { data = Array.make 256 Value.Vunit; sp = 0 }
  else begin
    st.d_pool_busy <- true;
    st.d_pooled
  end

let release_arena st arena =
  if arena == st.d_pooled then st.d_pool_busy <- false

let eval_binop op left right =
  match op with
  | Planp.Ast.Add -> Value.Vint (Value.as_int left + Value.as_int right)
  | Planp.Ast.Sub -> Value.Vint (Value.as_int left - Value.as_int right)
  | Planp.Ast.Mul -> Value.Vint (Value.as_int left * Value.as_int right)
  | Planp.Ast.Div ->
      let divisor = Value.as_int right in
      if divisor = 0 then raise (Value.Planp_raise "DivByZero")
      else Value.Vint (Value.as_int left / divisor)
  | Planp.Ast.Mod ->
      let divisor = Value.as_int right in
      if divisor = 0 then raise (Value.Planp_raise "DivByZero")
      else Value.Vint (Value.as_int left mod divisor)
  | Planp.Ast.Eq -> Value.vbool (Value.equal left right)
  | Planp.Ast.Ne -> Value.vbool (not (Value.equal left right))
  | Planp.Ast.Lt -> Value.vbool (Value.compare_values left right < 0)
  | Planp.Ast.Gt -> Value.vbool (Value.compare_values left right > 0)
  | Planp.Ast.Le -> Value.vbool (Value.compare_values left right <= 0)
  | Planp.Ast.Ge -> Value.vbool (Value.compare_values left right >= 0)
  | Planp.Ast.Concat ->
      Value.Vstring (Value.as_string left ^ Value.as_string right)
  | Planp.Ast.And | Planp.Ast.Or ->
      raise (Value.Runtime_error "vm: short-circuit op in Bin")

(* Run function [fn] whose frame starts at [base]; the caller has already
   placed the arguments at [base .. base+argc-1]. *)
let rec exec unit_ ~fn world st arena ~base =
  let func = unit_.Bytecode.funcs.(fn) in
  let stack_base = base + Int.max func.Bytecode.n_locals 1 in
  ensure arena stack_base;
  arena.sp <- stack_base;
  let pop () =
    if arena.sp <= stack_base then
      raise (Value.Runtime_error "vm: stack underflow");
    arena.sp <- arena.sp - 1;
    Array.unsafe_get arena.data arena.sp
  in
  let local slot = arena.data.(base + slot) in
  let tries = ref [] in
  let pc = ref 0 in
  let result = ref None in
  let code = func.Bytecode.code in
  (* Route a PLAN-P exception to the innermost matching handler, or
     re-raise to the calling frame. *)
  let handle_raise exn_name original =
    let rec unwind = function
      | [] -> raise original
      | frame :: rest -> (
          match List.assoc_opt exn_name frame.handlers with
          | Some target ->
              tries := rest;
              arena.sp <- frame.saved_sp;
              pc := target
          | None -> unwind rest)
    in
    unwind !tries
  in
  while Option.is_none !result do
    if !pc < 0 || !pc >= Array.length code then
      raise (Value.Runtime_error "vm: program counter out of range");
    let instr = code.(!pc) in
    incr pc;
    st.d_instrs <- st.d_instrs + 1;
    try
      match instr with
      | Bytecode.Const value -> push arena value
      | Bytecode.Load slot -> push arena (local slot)
      | Bytecode.Store slot -> arena.data.(base + slot) <- pop ()
      | Bytecode.Pop -> ignore (pop ())
      | Bytecode.Jump target -> pc := target
      | Bytecode.Jump_if_false target ->
          if not (Value.as_bool (pop ())) then pc := target
      | Bytecode.Make_tuple n ->
          let tbase = arena.sp - n in
          if tbase < stack_base then
            raise (Value.Runtime_error "vm: stack underflow");
          let components = Array.sub arena.data tbase n in
          arena.sp <- tbase;
          push arena (Value.Vtuple components)
      | Bytecode.Get_field i -> (
          match pop () with
          | Value.Vtuple components when i < Array.length components ->
              push arena (Array.unsafe_get components i)
          | value -> Value.type_error ~expected:"tuple" value)
      | Bytecode.Call_prim (pool_index, argc) ->
          let prim = unit_.Bytecode.pool.(pool_index) in
          st.d_prims <- st.d_prims + 1;
          let abase = arena.sp - argc in
          if abase < stack_base then
            raise (Value.Runtime_error "vm: stack underflow");
          let args =
            if argc < Array.length st.d_scratch then st.d_scratch.(argc)
            else Array.make argc Value.Vunit
          in
          Array.blit arena.data abase args 0 argc;
          arena.sp <- abase;
          push arena (prim.Prim.impl world args)
      | Bytecode.Call_fun (index, argc) ->
          (* The argc stack values become the callee's first locals in
             place; the callee's frame replaces them on the stack. *)
          let cbase = arena.sp - argc in
          if cbase < stack_base then
            raise (Value.Runtime_error "vm: stack underflow");
          let value = exec unit_ ~fn:index world st arena ~base:cbase in
          arena.sp <- cbase;
          push arena value
      | Bytecode.Bin op ->
          let right = pop () in
          let left = pop () in
          push arena (eval_binop op left right)
      | Bytecode.Load_bin (slot, op) ->
          let right = local slot in
          let left = pop () in
          push arena (eval_binop op left right)
      | Bytecode.Const_bin (value, op) ->
          let left = pop () in
          push arena (eval_binop op left value)
      | Bytecode.Cmp_jump (op, target) ->
          let right = pop () in
          let left = pop () in
          let taken =
            match op with
            | Planp.Ast.Eq -> Value.equal left right
            | Planp.Ast.Ne -> not (Value.equal left right)
            | Planp.Ast.Lt -> Value.compare_values left right < 0
            | Planp.Ast.Gt -> Value.compare_values left right > 0
            | Planp.Ast.Le -> Value.compare_values left right <= 0
            | Planp.Ast.Ge -> Value.compare_values left right >= 0
            | _ -> raise (Value.Runtime_error "vm: non-comparison in cmp_jump")
          in
          if not taken then pc := target
      | Bytecode.Not_op -> push arena (Value.vbool (not (Value.as_bool (pop ()))))
      | Bytecode.Neg_op -> push arena (Value.Vint (-Value.as_int (pop ())))
      | Bytecode.Emit (target, chan) ->
          world.Planp_runtime.World.emit target ~chan (pop ());
          push arena Value.Vunit
      | Bytecode.Raise_exn exn_name -> raise (Value.Planp_raise exn_name)
      | Bytecode.Push_try handlers ->
          tries := { handlers; saved_sp = arena.sp } :: !tries
      | Bytecode.Pop_try -> (
          match !tries with
          | _ :: rest -> tries := rest
          | [] -> raise (Value.Runtime_error "vm: pop_try on empty try stack"))
      | Bytecode.Return -> result := Some (pop ())
    with Value.Planp_raise exn_name as original ->
      handle_raise exn_name original
  done;
  match !result with
  | Some value -> value
  | None -> raise (Value.Runtime_error "vm: no result")

let call unit_ ~fn world (args : Value.t array) =
  let func = unit_.Bytecode.funcs.(fn) in
  if Array.length args > func.Bytecode.n_params then
    raise (Value.Runtime_error "vm: too many arguments");
  let st = Domain.DLS.get dls_key in
  let arena = take_arena st in
  arena.sp <- 0;
  ensure arena (Array.length args);
  Array.blit args 0 arena.data 0 (Array.length args);
  arena.sp <- Array.length args;
  match exec unit_ ~fn world st arena ~base:0 with
  | value ->
      release_arena st arena;
      value
  | exception e ->
      release_arena st arena;
      raise e
