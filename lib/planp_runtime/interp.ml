module Ast = Planp.Ast
module Env = Map.Make (String)

(* Profiling cells: mutable fields of a domain-local record, so the
   per-step cost stays one increment even with observability on while
   staying race-free under [Par_engine --domains k] (each domain owns
   its cells; the backend's exec wrapper reads the deltas into the
   registry once per packet, on the executing domain). *)
type prof = { mutable p_steps : int; mutable p_prims : int }

let profile_key = Domain.DLS.new_key (fun () -> { p_steps = 0; p_prims = 0 })
let profile () =
  let p = Domain.DLS.get profile_key in
  (p.p_steps, p.p_prims)

type ctx = {
  world : World.t;
  funs : (string, Ast.fundef) Hashtbl.t;
  base : Value.t Env.t;
  prof : prof;  (** the creating domain's cells; re-fetch when crossing *)
}

let make_ctx ~world ~funs ~globals =
  let fun_table = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace fun_table f.Ast.fun_name f) funs;
  let base =
    List.fold_left (fun env (name, value) -> Env.add name value env) Env.empty
      globals
  in
  { world; funs = fun_table; base; prof = Domain.DLS.get profile_key }

let lookup env name =
  match Env.find_opt name env with
  | Some value -> value
  | None ->
      raise (Value.Runtime_error (Printf.sprintf "unbound variable %s" name))

let arith op a b =
  let a = Value.as_int a and b = Value.as_int b in
  match op with
  | Ast.Add -> Value.Vint (a + b)
  | Ast.Sub -> Value.Vint (a - b)
  | Ast.Mul -> Value.Vint (a * b)
  | Ast.Div ->
      if b = 0 then raise (Value.Planp_raise "DivByZero") else Value.Vint (a / b)
  | Ast.Mod ->
      if b = 0 then raise (Value.Planp_raise "DivByZero")
      else Value.Vint (a mod b)
  | _ -> assert false

let rec eval ctx env (expr : Ast.expr) =
  ctx.prof.p_steps <- ctx.prof.p_steps + 1;
  match expr.Ast.desc with
  | Ast.Int n -> Value.Vint n
  | Ast.Bool b -> Value.vbool b
  | Ast.String s -> Value.Vstring s
  | Ast.Char c -> Value.Vchar c
  | Ast.Unit -> Value.Vunit
  | Ast.Host h -> Value.Vhost h
  | Ast.Var name -> lookup env name
  | Ast.Call (name, args) ->
      let arg_values = List.map (eval ctx env) args in
      apply ctx name arg_values
  | Ast.Tuple components ->
      Value.Vtuple (Array.of_list (List.map (eval ctx env) components))
  | Ast.Proj (index, operand) -> (
      match eval ctx env operand with
      | Value.Vtuple components
        when index >= 1 && index <= Array.length components ->
          Array.unsafe_get components (index - 1)
      | value -> Value.type_error ~expected:"tuple" value)
  | Ast.Let (bindings, body) ->
      let env =
        List.fold_left
          (fun env { Ast.bind_name; bind_expr; _ } ->
            Env.add bind_name (eval ctx env bind_expr) env)
          env bindings
      in
      eval ctx env body
  | Ast.If (cond, then_branch, else_branch) ->
      if Value.as_bool (eval ctx env cond) then eval ctx env then_branch
      else eval ctx env else_branch
  | Ast.Binop (Ast.And, left, right) ->
      if Value.as_bool (eval ctx env left) then eval ctx env right
      else Value.vfalse
  | Ast.Binop (Ast.Or, left, right) ->
      if Value.as_bool (eval ctx env left) then Value.vtrue
      else eval ctx env right
  | Ast.Binop (op, l, r) -> (
      (* Operands evaluate left to right, as in every backend. *)
      let a = eval ctx env l in
      let b = eval ctx env r in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> arith op a b
      | Ast.Eq -> Value.vbool (Value.equal a b)
      | Ast.Ne -> Value.vbool (not (Value.equal a b))
      | Ast.Lt -> Value.vbool (Value.compare_values a b < 0)
      | Ast.Gt -> Value.vbool (Value.compare_values a b > 0)
      | Ast.Le -> Value.vbool (Value.compare_values a b <= 0)
      | Ast.Ge -> Value.vbool (Value.compare_values a b >= 0)
      | Ast.Concat -> Value.Vstring (Value.as_string a ^ Value.as_string b)
      | Ast.And | Ast.Or -> assert false (* short-circuit: matched above *))
  | Ast.Unop (Ast.Not, operand) ->
      Value.vbool (not (Value.as_bool (eval ctx env operand)))
  | Ast.Unop (Ast.Neg, operand) ->
      Value.Vint (-Value.as_int (eval ctx env operand))
  | Ast.Seq (left, right) ->
      let _unit = eval ctx env left in
      eval ctx env right
  | Ast.On_remote (chan, packet) ->
      ctx.world.World.emit World.Remote ~chan (eval ctx env packet);
      Value.Vunit
  | Ast.On_neighbor (chan, packet) ->
      ctx.world.World.emit World.Neighbor ~chan (eval ctx env packet);
      Value.Vunit
  | Ast.Raise exn_name -> raise (Value.Planp_raise exn_name)
  | Ast.Try (body, handlers) -> (
      try eval ctx env body
      with Value.Planp_raise exn_name as original -> (
        match List.assoc_opt exn_name handlers with
        | Some handler -> eval ctx env handler
        | None -> raise original))

and apply ctx name arg_values =
  match Hashtbl.find_opt ctx.funs name with
  | Some { Ast.params; fun_body; _ } ->
      let env =
        List.fold_left2
          (fun env (param, _ty) value -> Env.add param value env)
          ctx.base params arg_values
      in
      eval ctx env fun_body
  | None ->
      let prim = Prim.find_exn name in
      ctx.prof.p_prims <- ctx.prof.p_prims + 1;
      prim.Prim.impl ctx.world (Array.of_list arg_values)

let eval_const ~world ~globals expr =
  let ctx = make_ctx ~world ~funs:[] ~globals in
  eval ctx ctx.base expr

let eval_globals ~world program =
  List.fold_left
    (fun globals decl ->
      match decl with
      | Ast.Dval ({ Ast.bind_name; bind_expr; _ }, _) ->
          let value = eval_const ~world ~globals:(List.rev globals) bind_expr in
          (bind_name, value) :: globals
      | Ast.Dfun _ | Ast.Dexception _ | Ast.Dprotostate _ | Ast.Dchannel _ ->
          globals)
    [] program
  |> List.rev

let interp_labels = [ ("backend", "interp") ]

let backend =
  {
    Backend.backend_name = "interp";
    compile =
      (fun checked ~globals ->
        let funs =
          List.filter_map
            (function Ast.Dfun f -> Some f | _ -> None)
            checked.Planp.Typecheck.program
        in
        (* The function table and global environment are per-program, not
           per-packet; only the world changes between invocations. *)
        let template =
          let world, _, _ = World.dummy () in
          make_ctx ~world ~funs ~globals
        in
        let labels = interp_labels in
        let m_packets =
          Obs.Registry.counter ~labels ~help:"packets executed"
            "planp.exec.packets"
        in
        let m_steps =
          Obs.Registry.counter ~labels ~help:"AST nodes evaluated"
            "planp.interp.eval_steps"
        in
        let m_prims =
          Obs.Registry.counter ~labels ~help:"primitive invocations"
            "planp.interp.prim_calls"
        in
        List.map
          (fun chan ->
            let exec world ~ps ~ss ~pkt =
              (* Fetch the executing domain's cells per packet: the
                 template was built on whichever domain installed the
                 program. *)
              let prof = Domain.DLS.get profile_key in
              let ctx = { template with world; prof } in
              let env =
                ctx.base
                |> Env.add chan.Ast.ps_name ps
                |> Env.add chan.Ast.ss_name ss
                |> Env.add chan.Ast.pkt_name pkt
              in
              let steps0 = prof.p_steps and prims0 = prof.p_prims in
              Fun.protect
                ~finally:(fun () ->
                  Obs.Registry.incr m_packets;
                  Obs.Registry.add m_steps (prof.p_steps - steps0);
                  Obs.Registry.add m_prims (prof.p_prims - prims0))
                (fun () ->
                  match eval ctx env chan.Ast.body with
                  | Value.Vtuple [| ps'; ss' |] -> (ps', ss')
                  | value ->
                      Value.type_error
                        ~expected:"(protocol, channel) state pair" value)
            in
            (chan, exec))
          (Ast.channels checked.Planp.Typecheck.program));
  }
