module Ast = Planp.Ast
module Value = Planp_runtime.Value
module Prim = Planp_runtime.Prim
module Backend = Planp_runtime.Backend
module World = Planp_runtime.World

type compiled_unit = {
  unit_ : Bytecode.unit_;
  channel_fns : (Ast.channel * int) list;
}

(* Growable instruction buffer with backpatchable jump targets. *)
module Emitter = struct
  type t = { mutable instrs : Bytecode.instr array; mutable len : int }

  let create () = { instrs = Array.make 64 Bytecode.Return; len = 0 }

  let emit t instr =
    if t.len = Array.length t.instrs then begin
      let grown = Array.make (2 * t.len) Bytecode.Return in
      Array.blit t.instrs 0 grown 0 t.len;
      t.instrs <- grown
    end;
    t.instrs.(t.len) <- instr;
    t.len <- t.len + 1

  let here t = t.len

  (* Emit a jump with a dummy target; patch it later. *)
  let emit_jump t =
    let at = t.len in
    emit t (Bytecode.Jump (-1));
    at

  let emit_jump_if_false t =
    let at = t.len in
    emit t (Bytecode.Jump_if_false (-1));
    at

  let patch t at target =
    match t.instrs.(at) with
    | Bytecode.Jump _ -> t.instrs.(at) <- Bytecode.Jump target
    | Bytecode.Jump_if_false _ -> t.instrs.(at) <- Bytecode.Jump_if_false target
    | _ -> invalid_arg "Emitter.patch: not a jump"

  let finish t = Array.sub t.instrs 0 t.len
end

(* Primitive constant pool, interned by name. *)
module Pool = struct
  type t = {
    mutable prims : Prim.prim list;  (* reversed *)
    mutable count : int;
    index : (string, int) Hashtbl.t;
  }

  let create () = { prims = []; count = 0; index = Hashtbl.create 16 }

  let intern t name =
    match Hashtbl.find_opt t.index name with
    | Some i -> i
    | None ->
        let prim = Prim.find_exn name in
        let i = t.count in
        t.prims <- prim :: t.prims;
        t.count <- t.count + 1;
        Hashtbl.add t.index name i;
        i

  let finish t = Array.of_list (List.rev t.prims)
end

type env = {
  globals : (string * Value.t) list;
  locals : (string * int) list;  (* innermost first *)
  next_local : int;
  max_local : int ref;  (* high-water mark, shared across scope extensions *)
  fun_index : (string, int * int) Hashtbl.t;  (* name -> (index, arity) *)
  pool : Pool.t;
}

let alloc_local env name =
  let slot = env.next_local in
  if slot + 1 > !(env.max_local) then env.max_local := slot + 1;
  ({ env with locals = (name, slot) :: env.locals; next_local = slot + 1 }, slot)

(* Peephole pass: fuse adjacent instruction pairs into the superinstructions
   of {!Bytecode} ([Load/Const + Bin] and [compare + Jump_if_false]),
   halving dispatch on the hottest arithmetic/branch sequences.  A pair is
   only fused when no jump lands on its second instruction; all jump
   targets (including try-handler tables) are remapped to the compacted
   indices. *)
module Peephole = struct
  let fusible_bin = function Ast.And | Ast.Or -> false | _ -> true

  let comparison = function
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> true
    | _ -> false

  let run code =
    let n = Array.length code in
    let is_target = Array.make (n + 1) false in
    Array.iter
      (fun instr ->
        match instr with
        | Bytecode.Jump target | Bytecode.Jump_if_false target ->
            is_target.(target) <- true
        | Bytecode.Push_try handlers ->
            List.iter (fun (_, target) -> is_target.(target) <- true) handlers
        | _ -> ())
      code;
    (* Decide fusions: [fused.(i)] replaces the pair (i, i+1); the dropped
       second instruction gets [keep.(i+1) = false]. *)
    let keep = Array.make n true in
    let fused = Array.make n None in
    let i = ref 0 in
    while !i < n - 1 do
      let pair =
        if is_target.(!i + 1) then None
        else
          match (code.(!i), code.(!i + 1)) with
          | Bytecode.Load slot, Bytecode.Bin op when fusible_bin op ->
              Some (Bytecode.Load_bin (slot, op))
          | Bytecode.Const value, Bytecode.Bin op when fusible_bin op ->
              Some (Bytecode.Const_bin (value, op))
          | Bytecode.Bin op, Bytecode.Jump_if_false target when comparison op
            ->
              Some (Bytecode.Cmp_jump (op, target))
          | _ -> None
      in
      match pair with
      | Some instr ->
          fused.(!i) <- Some instr;
          keep.(!i + 1) <- false;
          i := !i + 2
      | None -> incr i
    done;
    let new_index = Array.make (n + 1) 0 in
    let count = ref 0 in
    for j = 0 to n - 1 do
      new_index.(j) <- !count;
      if keep.(j) then incr count
    done;
    new_index.(n) <- !count;
    let remap target = new_index.(target) in
    let out = Array.make !count Bytecode.Return in
    let k = ref 0 in
    for j = 0 to n - 1 do
      if keep.(j) then begin
        let instr = match fused.(j) with Some f -> f | None -> code.(j) in
        out.(!k) <-
          (match instr with
          | Bytecode.Jump target -> Bytecode.Jump (remap target)
          | Bytecode.Jump_if_false target ->
              Bytecode.Jump_if_false (remap target)
          | Bytecode.Cmp_jump (op, target) ->
              Bytecode.Cmp_jump (op, remap target)
          | Bytecode.Push_try handlers ->
              Bytecode.Push_try
                (List.map
                   (fun (exn_name, target) -> (exn_name, remap target))
                   handlers)
          | other -> other);
        incr k
      end
    done;
    out
end

let rec compile env emitter (expr : Ast.expr) =
  let emit = Emitter.emit emitter in
  match expr.Ast.desc with
  | Ast.Int n -> emit (Bytecode.Const (Value.Vint n))
  | Ast.Bool b -> emit (Bytecode.Const (Value.Vbool b))
  | Ast.String s -> emit (Bytecode.Const (Value.Vstring s))
  | Ast.Char c -> emit (Bytecode.Const (Value.Vchar c))
  | Ast.Unit -> emit (Bytecode.Const Value.Vunit)
  | Ast.Host h -> emit (Bytecode.Const (Value.Vhost h))
  | Ast.Var name -> (
      match List.assoc_opt name env.locals with
      | Some slot -> emit (Bytecode.Load slot)
      | None -> (
          match List.assoc_opt name env.globals with
          | Some value -> emit (Bytecode.Const value)
          | None ->
              raise
                (Value.Runtime_error
                   (Printf.sprintf "bytecomp: unbound variable %s" name))))
  | Ast.Call (name, args) -> (
      List.iter (compile env emitter) args;
      match Hashtbl.find_opt env.fun_index name with
      | Some (index, arity) ->
          if arity <> List.length args then
            raise (Value.Runtime_error ("bytecomp: bad arity for " ^ name));
          emit (Bytecode.Call_fun (index, arity))
      | None ->
          let pool_index = Pool.intern env.pool name in
          emit (Bytecode.Call_prim (pool_index, List.length args)))
  | Ast.Tuple components ->
      List.iter (compile env emitter) components;
      emit (Bytecode.Make_tuple (List.length components))
  | Ast.Proj (index, operand) ->
      compile env emitter operand;
      emit (Bytecode.Get_field (index - 1))
  | Ast.Let (bindings, body) ->
      let env =
        List.fold_left
          (fun env { Ast.bind_name; bind_expr; _ } ->
            compile env emitter bind_expr;
            let env, slot = alloc_local env bind_name in
            Emitter.emit emitter (Bytecode.Store slot);
            env)
          env bindings
      in
      compile env emitter body
  | Ast.If (cond, then_branch, else_branch) ->
      compile env emitter cond;
      let to_else = Emitter.emit_jump_if_false emitter in
      compile env emitter then_branch;
      let to_end = Emitter.emit_jump emitter in
      Emitter.patch emitter to_else (Emitter.here emitter);
      compile env emitter else_branch;
      Emitter.patch emitter to_end (Emitter.here emitter)
  | Ast.Binop (Ast.And, left, right) ->
      compile env emitter left;
      let to_false = Emitter.emit_jump_if_false emitter in
      compile env emitter right;
      let to_end = Emitter.emit_jump emitter in
      Emitter.patch emitter to_false (Emitter.here emitter);
      emit (Bytecode.Const (Value.Vbool false));
      Emitter.patch emitter to_end (Emitter.here emitter)
  | Ast.Binop (Ast.Or, left, right) ->
      compile env emitter left;
      let to_right = Emitter.emit_jump_if_false emitter in
      emit (Bytecode.Const (Value.Vbool true));
      let to_end = Emitter.emit_jump emitter in
      Emitter.patch emitter to_right (Emitter.here emitter);
      compile env emitter right;
      Emitter.patch emitter to_end (Emitter.here emitter)
  | Ast.Binop (op, left, right) ->
      compile env emitter left;
      compile env emitter right;
      emit (Bytecode.Bin op)
  | Ast.Unop (Ast.Not, operand) ->
      compile env emitter operand;
      emit Bytecode.Not_op
  | Ast.Unop (Ast.Neg, operand) ->
      compile env emitter operand;
      emit Bytecode.Neg_op
  | Ast.Seq (left, right) ->
      compile env emitter left;
      emit Bytecode.Pop;
      compile env emitter right
  | Ast.On_remote (chan, packet) ->
      compile env emitter packet;
      emit (Bytecode.Emit (World.Remote, chan))
  | Ast.On_neighbor (chan, packet) ->
      compile env emitter packet;
      emit (Bytecode.Emit (World.Neighbor, chan))
  | Ast.Raise exn_name -> emit (Bytecode.Raise_exn exn_name)
  | Ast.Try (body, handlers) ->
      (* push_try [h...]; body; pop_try; jump end; h1: ...; jump end; ... *)
      let push_at = Emitter.here emitter in
      emit (Bytecode.Push_try []);
      compile env emitter body;
      emit Bytecode.Pop_try;
      let body_to_end = Emitter.emit_jump emitter in
      let ends = ref [ body_to_end ] in
      let handler_table =
        List.map
          (fun (exn_name, handler) ->
            let target = Emitter.here emitter in
            compile env emitter handler;
            ends := Emitter.emit_jump emitter :: !ends;
            (exn_name, target))
          handlers
      in
      emitter.Emitter.instrs.(push_at) <- Bytecode.Push_try handler_table;
      let the_end = Emitter.here emitter in
      List.iter (fun at -> Emitter.patch emitter at the_end) !ends

let compile_function ~globals ~fun_index ~pool ~params body ~name =
  let env =
    {
      globals;
      locals = [];
      next_local = 0;
      max_local = ref 0;
      fun_index;
      pool;
    }
  in
  let env =
    List.fold_left (fun env param -> fst (alloc_local env param)) env params
  in
  let emitter = Emitter.create () in
  compile env emitter body;
  Emitter.emit emitter Bytecode.Return;
  {
    Bytecode.fn_name = name;
    code = Peephole.run (Emitter.finish emitter);
    n_locals = !(env.max_local);
    n_params = List.length params;
  }

let compile_program checked ~globals =
  let program = checked.Planp.Typecheck.program in
  let pool = Pool.create () in
  let fun_index = Hashtbl.create 16 in
  let funcs = ref [] in
  let add_func func =
    let index = List.length !funcs in
    funcs := !funcs @ [ func ];
    index
  in
  List.iter
    (fun decl ->
      match decl with
      | Ast.Dfun f ->
          let func =
            compile_function ~globals ~fun_index ~pool
              ~params:(List.map fst f.Ast.params)
              f.Ast.fun_body ~name:f.Ast.fun_name
          in
          let index = add_func func in
          Hashtbl.replace fun_index f.Ast.fun_name
            (index, List.length f.Ast.params)
      | Ast.Dval _ | Ast.Dexception _ | Ast.Dprotostate _ | Ast.Dchannel _ -> ())
    program;
  let channel_fns =
    List.map
      (fun chan ->
        let func =
          compile_function ~globals ~fun_index ~pool
            ~params:[ chan.Ast.ps_name; chan.Ast.ss_name; chan.Ast.pkt_name ]
            chan.Ast.body
            ~name:("channel:" ^ chan.Ast.chan_name)
        in
        (chan, add_func func))
      (Ast.channels program)
  in
  {
    unit_ = { Bytecode.funcs = Array.of_list !funcs; pool = Pool.finish pool };
    channel_fns;
  }

let bytecode_labels = [ ("backend", "bytecode") ]

let bytecode_counters () =
  ( Obs.Registry.counter ~labels:bytecode_labels ~help:"packets executed"
      "planp.exec.packets",
    Obs.Registry.counter ~labels:bytecode_labels
      ~help:"VM instructions dispatched" "planp.vm.instrs",
    Obs.Registry.counter ~labels:bytecode_labels ~help:"primitive invocations"
      "planp.vm.prim_calls" )

let backend =
  {
    Backend.backend_name = "bytecode";
    compile =
      (fun checked ~globals ->
        let { unit_; channel_fns } = compile_program checked ~globals in
        let m_packets, m_instrs, m_prims = bytecode_counters () in
        List.map
          (fun (chan, fn) ->
            let exec world ~ps ~ss ~pkt =
              let instrs0, prims0 = Vm.profile () in
              Fun.protect
                ~finally:(fun () ->
                  let instrs1, prims1 = Vm.profile () in
                  Obs.Registry.incr m_packets;
                  Obs.Registry.add m_instrs (instrs1 - instrs0);
                  Obs.Registry.add m_prims (prims1 - prims0))
                (fun () ->
                  match Vm.call unit_ ~fn world [| ps; ss; pkt |] with
                  | Value.Vtuple [| ps'; ss' |] -> (ps', ss')
                  | value ->
                      Value.type_error
                        ~expected:"(protocol, channel) state pair" value)
            in
            (chan, exec))
          channel_fns);
  }

let compile_expr ~globals ~params expr =
  let pool = Pool.create () in
  let fun_index = Hashtbl.create 1 in
  let func =
    compile_function ~globals ~fun_index ~pool ~params expr ~name:"expr"
  in
  { Bytecode.funcs = [| func |]; pool = Pool.finish pool }
