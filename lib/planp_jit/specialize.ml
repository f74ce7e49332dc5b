module Ast = Planp.Ast
module Value = Planp_runtime.Value
module World = Planp_runtime.World
module Prim = Planp_runtime.Prim
module Backend = Planp_runtime.Backend

(* Run-time state of compiled code: the world and a slice of the channel's
   slot arena.  The arena is allocated once per compiled channel and reused
   for every packet; a function call carves its frame out of the region
   above [top] instead of allocating.  Everything else (names, types, AST)
   is gone after compilation.

   Safety of the reuse: packet executions never nest.  Channel code runs
   only from the engine's event loop, and the world's [emit]/[deliver]
   effects enqueue further work through the engine rather than executing
   another channel synchronously.  PLAN-P functions cannot recurse (the
   type checker only admits calls to previously declared functions), so a
   call site's frame region is never live twice. *)
type arena = { mutable data : Value.t array; mutable top : int }
type rt = { world : World.t; arena : arena; base : int }
type compiled = rt -> Value.t
type code = { entry : compiled; frame_size : int; param_count : int }

let make_arena size = { data = Array.make (Int.max size 16) Value.Vunit; top = 0 }

let ensure arena needed =
  if needed > Array.length arena.data then (
    let cap = ref (2 * Array.length arena.data) in
    while needed > !cap do
      cap := !cap * 2
    done;
    let data = Array.make !cap Value.Vunit in
    Array.blit arena.data 0 data 0 arena.top;
    arena.data <- data)

(* Compile-time environment: where does a name live? *)
type binding = Global of Value.t | Slot of int

type ctx = {
  names : (string * binding) list;  (* innermost first *)
  next_slot : int;
  max_slot : int ref;  (* high-water mark, shared across scope extensions *)
  funs : (string, fun_code) Hashtbl.t;
}

and fun_code = { fc_body : compiled; fc_frame : int; fc_params : int }

let bind ctx name =
  let slot = ctx.next_slot in
  if slot + 1 > !(ctx.max_slot) then ctx.max_slot := slot + 1;
  ({ ctx with names = (name, Slot slot) :: ctx.names; next_slot = slot + 1 }, slot)

let lookup ctx name =
  match List.assoc_opt name ctx.names with
  | Some binding -> binding
  | None ->
      raise
        (Value.Runtime_error
           (Printf.sprintf "specialize: unbound variable %s" name))

(* Specialized arithmetic templates: the operator match happens here, at
   compile time — the residual closure performs only the operation. *)
let compile_arith op (l : compiled) (r : compiled) : compiled =
  match op with
  | Ast.Add -> fun rt -> Value.Vint (Value.as_int (l rt) + Value.as_int (r rt))
  | Ast.Sub -> fun rt -> Value.Vint (Value.as_int (l rt) - Value.as_int (r rt))
  | Ast.Mul -> fun rt -> Value.Vint (Value.as_int (l rt) * Value.as_int (r rt))
  | Ast.Div ->
      fun rt ->
        let b = Value.as_int (r rt) in
        if b = 0 then raise (Value.Planp_raise "DivByZero")
        else Value.Vint (Value.as_int (l rt) / b)
  | Ast.Mod ->
      fun rt ->
        let b = Value.as_int (r rt) in
        if b = 0 then raise (Value.Planp_raise "DivByZero")
        else Value.Vint (Value.as_int (l rt) mod b)
  | Ast.Eq -> fun rt -> Value.vbool (Value.equal (l rt) (r rt))
  | Ast.Ne -> fun rt -> Value.vbool (not (Value.equal (l rt) (r rt)))
  | Ast.Lt -> fun rt -> Value.vbool (Value.compare_values (l rt) (r rt) < 0)
  | Ast.Gt -> fun rt -> Value.vbool (Value.compare_values (l rt) (r rt) > 0)
  | Ast.Le -> fun rt -> Value.vbool (Value.compare_values (l rt) (r rt) <= 0)
  | Ast.Ge -> fun rt -> Value.vbool (Value.compare_values (l rt) (r rt) >= 0)
  | Ast.Concat ->
      fun rt -> Value.Vstring (Value.as_string (l rt) ^ Value.as_string (r rt))
  | Ast.And | Ast.Or -> assert false (* short-circuit: handled in compile *)

let rec compile ctx (expr : Ast.expr) : compiled =
  match expr.Ast.desc with
  | Ast.Int n ->
      let v = Value.Vint n in
      fun _ -> v
  | Ast.Bool b ->
      let v = Value.vbool b in
      fun _ -> v
  | Ast.String s ->
      let v = Value.Vstring s in
      fun _ -> v
  | Ast.Char c ->
      let v = Value.Vchar c in
      fun _ -> v
  | Ast.Unit -> fun _ -> Value.Vunit
  | Ast.Host h ->
      let v = Value.Vhost h in
      fun _ -> v
  | Ast.Var name -> (
      match lookup ctx name with
      | Global value -> fun _ -> value
      | Slot slot -> fun rt -> rt.arena.data.(rt.base + slot))
  | Ast.Call (name, args) -> (
      let arg_codes = Array.of_list (List.map (compile ctx) args) in
      match Hashtbl.find_opt ctx.funs name with
      | Some { fc_body; fc_frame; fc_params } ->
          if fc_params <> Array.length arg_codes then
            raise (Value.Runtime_error ("specialize: bad arity for " ^ name));
          fun rt ->
            let arena = rt.arena in
            let base = arena.top in
            ensure arena (base + fc_frame);
            (* Bump before evaluating arguments: a call inside an argument
               expression then builds its own frame above this one. *)
            arena.top <- base + fc_frame;
            for i = 0 to Array.length arg_codes - 1 do
              let v = (Array.unsafe_get arg_codes i) rt in
              arena.data.(base + i) <- v
            done;
            let result = fc_body { world = rt.world; arena; base } in
            arena.top <- base;
            result
      | None ->
          let prim = Prim.find_exn name in
          let impl = prim.Prim.impl in
          (* Per-call-site scratch argument buffers: functions cannot
             recurse and packet executions never nest, so each site's
             buffer is dead again by the time the primitive returns (the
             Prim.impl contract forbids retaining it). *)
          (match arg_codes with
          | [||] -> fun rt -> impl rt.world [||]
          | [| a |] ->
              let scratch = [| Value.Vunit |] in
              fun rt ->
                scratch.(0) <- a rt;
                impl rt.world scratch
          | [| a; b |] ->
              let scratch = [| Value.Vunit; Value.Vunit |] in
              fun rt ->
                scratch.(0) <- a rt;
                scratch.(1) <- b rt;
                impl rt.world scratch
          | [| a; b; c |] ->
              let scratch = [| Value.Vunit; Value.Vunit; Value.Vunit |] in
              fun rt ->
                scratch.(0) <- a rt;
                scratch.(1) <- b rt;
                scratch.(2) <- c rt;
                impl rt.world scratch
          | codes ->
              let scratch = Array.make (Array.length codes) Value.Vunit in
              fun rt ->
                for i = 0 to Array.length codes - 1 do
                  scratch.(i) <- (Array.unsafe_get codes i) rt
                done;
                impl rt.world scratch))
  | Ast.Tuple components -> (
      (* Pairs and triples are array literals; the lets keep components
         evaluating left to right. *)
      match Array.of_list (List.map (compile ctx) components) with
      | [| a; b |] ->
          fun rt ->
            let va = a rt in
            let vb = b rt in
            Value.Vtuple [| va; vb |]
      | [| a; b; c |] ->
          fun rt ->
            let va = a rt in
            let vb = b rt in
            let vc = c rt in
            Value.Vtuple [| va; vb; vc |]
      | codes -> fun rt -> Value.Vtuple (Array.map (fun c -> c rt) codes))
  | Ast.Proj (index, operand) ->
      let code = compile ctx operand in
      let i = index - 1 in
      fun rt -> (
        match code rt with
        | Value.Vtuple components -> components.(i)
        | value -> Value.type_error ~expected:"tuple" value)
  | Ast.Let (bindings, body) ->
      (* Each binding compiles to a slot store; the body sees the slots. *)
      let rec chain ctx = function
        | [] -> compile ctx body
        | { Ast.bind_name; bind_expr; _ } :: rest ->
            let value_code = compile ctx bind_expr in
            let ctx', slot = bind ctx bind_name in
            let rest_code = chain ctx' rest in
            fun rt ->
              let v = value_code rt in
              rt.arena.data.(rt.base + slot) <- v;
              rest_code rt
      in
      chain ctx bindings
  | Ast.If (cond, then_branch, else_branch) ->
      let cond_code = compile ctx cond in
      let then_code = compile ctx then_branch in
      let else_code = compile ctx else_branch in
      fun rt -> if Value.as_bool (cond_code rt) then then_code rt else else_code rt
  | Ast.Binop (Ast.And, left, right) ->
      let l = compile ctx left and r = compile ctx right in
      fun rt -> if Value.as_bool (l rt) then r rt else Value.vfalse
  | Ast.Binop (Ast.Or, left, right) ->
      let l = compile ctx left and r = compile ctx right in
      fun rt -> if Value.as_bool (l rt) then Value.vtrue else r rt
  | Ast.Binop (op, left, right) ->
      compile_arith op (compile ctx left) (compile ctx right)
  | Ast.Unop (Ast.Not, operand) ->
      let code = compile ctx operand in
      fun rt -> Value.vbool (not (Value.as_bool (code rt)))
  | Ast.Unop (Ast.Neg, operand) ->
      let code = compile ctx operand in
      fun rt -> Value.Vint (-Value.as_int (code rt))
  | Ast.Seq (left, right) ->
      let l = compile ctx left and r = compile ctx right in
      fun rt ->
        let _unit = l rt in
        r rt
  | Ast.On_remote (chan, packet) ->
      let code = compile ctx packet in
      fun rt ->
        rt.world.World.emit World.Remote ~chan (code rt);
        Value.Vunit
  | Ast.On_neighbor (chan, packet) ->
      let code = compile ctx packet in
      fun rt ->
        rt.world.World.emit World.Neighbor ~chan (code rt);
        Value.Vunit
  | Ast.Raise exn_name ->
      let exn = Value.Planp_raise exn_name in
      fun _ -> raise exn
  | Ast.Try (body, handlers) ->
      let body_code = compile ctx body in
      let handler_codes =
        List.map (fun (exn_name, handler) -> (exn_name, compile ctx handler)) handlers
      in
      fun rt -> (
        try body_code rt
        with Value.Planp_raise exn_name as original -> (
          (* The frame region of any call the raise unwound stays bumped
             until the channel exec resets [top]; handlers just allocate
             above it. *)
          match List.assoc_opt exn_name handler_codes with
          | Some handler -> handler rt
          | None -> raise original))

(* Compile the shared declarations of a program: globals become embedded
   constants, functions become compiled bodies with their own frames. *)
let compile_unit (program : Ast.program) ~globals =
  let funs : (string, fun_code) Hashtbl.t = Hashtbl.create 16 in
  let global_bindings =
    List.map (fun (name, value) -> (name, Global value)) globals
  in
  List.iter
    (fun decl ->
      match decl with
      | Ast.Dfun f ->
          (* Functions only call previously declared functions (enforced by
             the type checker), so eager compilation in declaration order
             always finds callees already compiled. *)
          let ctx =
            { names = global_bindings; next_slot = 0; max_slot = ref 0; funs }
          in
          let ctx =
            List.fold_left
              (fun ctx (param, _ty) -> fst (bind ctx param))
              ctx f.Ast.params
          in
          let fc_body = compile ctx f.Ast.fun_body in
          Hashtbl.replace funs f.Ast.fun_name
            { fc_body; fc_frame = Int.max 1 !(ctx.max_slot);
              fc_params = List.length f.Ast.params }
      | Ast.Dval _ | Ast.Dexception _ | Ast.Dprotostate _ | Ast.Dchannel _ -> ())
    program;
  (global_bindings, funs)

let compile_channel ~global_bindings ~funs (chan : Ast.channel) =
  let ctx = { names = global_bindings; next_slot = 0; max_slot = ref 0; funs } in
  let ctx, ps_slot = bind ctx chan.Ast.ps_name in
  let ctx, ss_slot = bind ctx chan.Ast.ss_name in
  let ctx, pkt_slot = bind ctx chan.Ast.pkt_name in
  let body = compile ctx chan.Ast.body in
  let frame_size = !(ctx.max_slot) in
  let arena = make_arena frame_size in
  fun world ~ps ~ss ~pkt ->
    (* Resetting [top] here also heals any inflation a previous packet's
       escaped exception left behind. *)
    arena.top <- frame_size;
    let data = arena.data in
    data.(ps_slot) <- ps;
    data.(ss_slot) <- ss;
    data.(pkt_slot) <- pkt;
    match body { world; arena; base = 0 } with
    | Value.Vtuple [| ps'; ss' |] -> (ps', ss')
    | value -> Value.type_error ~expected:"(protocol, channel) state pair" value

let backend =
  {
    Backend.backend_name = "jit";
    (* No per-step accounting in specialized code, so there is nothing
       to snapshot or credit beyond the packet itself: the flow cache's
       hit path is exactly the paper's "cached entry stub" sitting ahead
       of the specialized closure. *)
    profile = (fun () -> (0, 0));
    replay_credit =
      (fun () ->
        let m_packets =
          Obs.Registry.counter
            ~labels:[ ("backend", "jit") ]
            ~help:"packets executed" "planp.exec.packets"
        in
        fun ~steps:_ ~prims:_ -> Obs.Registry.incr m_packets);
    compile =
      (fun checked ~globals ->
        let program = checked.Planp.Typecheck.program in
        let global_bindings, funs = compile_unit program ~globals in
        (* Only a per-packet counter here: specialized code must stay at
           native speed, so no per-step accounting (paper 2.4). *)
        let m_packets =
          Obs.Registry.counter
            ~labels:[ ("backend", "jit") ]
            ~help:"packets executed" "planp.exec.packets"
        in
        List.map
          (fun chan ->
            let exec = compile_channel ~global_bindings ~funs chan in
            let exec world ~ps ~ss ~pkt =
              Obs.Registry.incr m_packets;
              exec world ~ps ~ss ~pkt
            in
            (chan, exec))
          (Ast.channels program));
  }

let compile_expr ~globals ~params expr =
  let global_bindings =
    List.map (fun (name, value) -> (name, Global value)) globals
  in
  let ctx =
    {
      names = global_bindings;
      next_slot = 0;
      max_slot = ref 0;
      funs = Hashtbl.create 1;
    }
  in
  let ctx =
    List.fold_left (fun ctx param -> fst (bind ctx param)) ctx params
  in
  let entry = compile ctx expr in
  { entry; frame_size = !(ctx.max_slot); param_count = List.length params }

let run code world args =
  let size = Int.max code.frame_size code.param_count in
  let arena = make_arena size in
  arena.top <- size;
  List.iteri
    (fun i value -> if i < code.param_count then arena.data.(i) <- value)
    args;
  code.entry { world; arena; base = 0 }
