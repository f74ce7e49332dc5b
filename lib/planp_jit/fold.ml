module Ast = Planp.Ast
module Value = Planp_runtime.Value
module Prim = Planp_runtime.Prim

(* An expression is "literal" when we can read its value off statically. *)
let literal_of (expr : Ast.expr) =
  match expr.Ast.desc with
  | Ast.Int n -> Some (Value.Vint n)
  | Ast.Bool b -> Some (Value.vbool b)
  | Ast.String s -> Some (Value.Vstring s)
  | Ast.Char c -> Some (Value.Vchar c)
  | Ast.Unit -> Some Value.Vunit
  | Ast.Host h -> Some (Value.Vhost h)
  | _ -> None

(* A folded literal carries its type, as the checker would have given it. *)
let typed_literal loc desc ty = { Ast.desc; loc; ty = Some ty }

let expr_of_literal loc (value : Value.t) =
  match value with
  | Value.Vint n -> Some (typed_literal loc (Ast.Int n) Planp.Ptype.Tint)
  | Value.Vbool b -> Some (typed_literal loc (Ast.Bool b) Planp.Ptype.Tbool)
  | Value.Vstring s -> Some (typed_literal loc (Ast.String s) Planp.Ptype.Tstring)
  | Value.Vchar c -> Some (typed_literal loc (Ast.Char c) Planp.Ptype.Tchar)
  | Value.Vunit -> Some (typed_literal loc Ast.Unit Planp.Ptype.Tunit)
  | Value.Vhost h -> Some (typed_literal loc (Ast.Host h) Planp.Ptype.Thost)
  | Value.Vblob _ | Value.Vip _ | Value.Vtcp _ | Value.Vudp _ | Value.Vtuple _
  | Value.Vtable _ ->
      None

(* Pure total primitives safe to evaluate at compile time on literal
   arguments. Partial primitives (chr, substr, ...) are excluded: their
   run-time exceptions must keep their run-time semantics. *)
let foldable_prim = function
  | "itos" | "htos" | "charPos" | "strlen" | "strFind" | "min" | "max" | "abs"
  | "even" | "isMulticast" | "hostBits" ->
      true
  | _ -> false

let fold_binop loc op (a : Value.t) (b : Value.t) =
  let int_op f =
    match (a, b) with
    | Value.Vint x, Value.Vint y -> expr_of_literal loc (Value.Vint (f x y))
    | _ -> None
  in
  let cmp f =
    match (a, b) with
    | Value.Vint x, Value.Vint y ->
        expr_of_literal loc (Value.Vbool (f (Int.compare x y) 0))
    | Value.Vchar x, Value.Vchar y ->
        expr_of_literal loc (Value.Vbool (f (Char.compare x y) 0))
    | Value.Vstring x, Value.Vstring y ->
        expr_of_literal loc (Value.Vbool (f (String.compare x y) 0))
    | _ -> None
  in
  match op with
  | Ast.Add -> int_op ( + )
  | Ast.Sub -> int_op ( - )
  | Ast.Mul -> int_op ( * )
  | Ast.Div | Ast.Mod ->
      (* Folding would erase the DivByZero raise point; leave division to
         run time even on literals. *)
      None
  | Ast.Eq -> (
      try expr_of_literal loc (Value.Vbool (Value.equal a b)) with _ -> None)
  | Ast.Ne -> (
      try expr_of_literal loc (Value.Vbool (not (Value.equal a b)))
      with _ -> None)
  | Ast.Lt -> cmp ( < )
  | Ast.Gt -> cmp ( > )
  | Ast.Le -> cmp ( <= )
  | Ast.Ge -> cmp ( >= )
  | Ast.Concat -> (
      match (a, b) with
      | Value.Vstring x, Value.Vstring y ->
          expr_of_literal loc (Value.Vstring (x ^ y))
      | _ -> None)
  | Ast.And | Ast.Or -> None (* handled before evaluation, for short-circuit *)

(* [env] maps names to [Some literal] when statically known, [None] when a
   binding shadows an outer literal with an unknown value (poisoning, so an
   inner shadow can never leak the outer literal). *)
(* A rewritten node keeps the type of the node it replaces, so the JIT
   reads the checker's types off the folded program too. *)
let rec fold env (expr : Ast.expr) : Ast.expr =
  let loc = expr.Ast.loc in
  let rebuilt desc = { expr with Ast.desc } in
  match expr.Ast.desc with
  | Ast.Int _ | Ast.Bool _ | Ast.String _ | Ast.Char _ | Ast.Unit | Ast.Host _
  | Ast.Raise _ ->
      expr
  | Ast.Var name -> (
      match List.assoc_opt name env with
      | Some (Some value) -> (
          match expr_of_literal loc value with
          | Some literal -> literal
          | None -> expr)
      | Some None | None -> expr)
  | Ast.Call (name, args) -> (
      let args = List.map (fold env) args in
      let call = rebuilt (Ast.Call (name, args)) in
      if not (foldable_prim name) then call
      else
        match
          List.fold_right
            (fun arg acc ->
              match (acc, literal_of arg) with
              | Some values, Some value -> Some (value :: values)
              | _ -> None)
            args (Some [])
        with
        | Some values -> (
            match Prim.find name with
            | Some prim -> (
                let world, _, _ = Planp_runtime.World.dummy () in
                match prim.Prim.impl world (Array.of_list values) with
                | value -> (
                    match expr_of_literal loc value with
                    | Some literal -> literal
                    | None -> call)
                | exception _ -> call)
            | None -> call)
        | None -> call)
  | Ast.Tuple components -> rebuilt (Ast.Tuple (List.map (fold env) components))
  | Ast.Proj (index, operand) -> (
      let operand = fold env operand in
      match operand.Ast.desc with
      | Ast.Tuple components
        when index >= 1 && index <= List.length components ->
          (* Safe only when the discarded components are effect-free;
             literals and variables always are. *)
          let kept = List.nth components (index - 1) in
          let others_pure =
            List.for_all
              (fun (c : Ast.expr) ->
                match c.Ast.desc with
                | Ast.Int _ | Ast.Bool _ | Ast.String _ | Ast.Char _ | Ast.Unit
                | Ast.Host _ | Ast.Var _ ->
                    true
                | _ -> false)
              components
          in
          if others_pure then kept else rebuilt (Ast.Proj (index, operand))
      | _ -> rebuilt (Ast.Proj (index, operand)))
  | Ast.Let (bindings, body) -> (
      let env, bindings =
        List.fold_left
          (fun (env, acc) { Ast.bind_name; bind_type; bind_expr } ->
            let bind_expr = fold env bind_expr in
            let env = (bind_name, literal_of bind_expr) :: env in
            (env, { Ast.bind_name; bind_type; bind_expr } :: acc))
          (env, []) bindings
      in
      (* A binding whose initializer folded to a literal was substituted at
         every use and is pure: drop it. *)
      let live =
        List.rev
          (List.filter
             (fun { Ast.bind_expr; _ } -> Option.is_none (literal_of bind_expr))
             bindings)
      in
      let body = fold env body in
      match live with
      | [] -> body
      | _ -> rebuilt (Ast.Let (live, body)))
  | Ast.If (cond, then_branch, else_branch) -> (
      let cond = fold env cond in
      match cond.Ast.desc with
      | Ast.Bool true -> fold env then_branch
      | Ast.Bool false -> fold env else_branch
      | _ ->
          rebuilt (Ast.If (cond, fold env then_branch, fold env else_branch)))
  | Ast.Binop (Ast.And, left, right) -> (
      let left = fold env left in
      match left.Ast.desc with
      | Ast.Bool true -> fold env right
      | Ast.Bool false -> Option.get (expr_of_literal loc Value.vfalse)
      | _ -> rebuilt (Ast.Binop (Ast.And, left, fold env right)))
  | Ast.Binop (Ast.Or, left, right) -> (
      let left = fold env left in
      match left.Ast.desc with
      | Ast.Bool false -> fold env right
      | Ast.Bool true -> Option.get (expr_of_literal loc Value.vtrue)
      | _ -> rebuilt (Ast.Binop (Ast.Or, left, fold env right)))
  | Ast.Binop (op, left, right) -> (
      let left = fold env left and right = fold env right in
      match (literal_of left, literal_of right) with
      | Some a, Some b -> (
          match fold_binop loc op a b with
          | Some folded -> folded
          | None -> rebuilt (Ast.Binop (op, left, right)))
      | _ -> rebuilt (Ast.Binop (op, left, right)))
  | Ast.Unop (Ast.Not, operand) -> (
      let operand = fold env operand in
      match operand.Ast.desc with
      | Ast.Bool b -> Option.get (expr_of_literal loc (Value.vbool (not b)))
      | _ -> rebuilt (Ast.Unop (Ast.Not, operand)))
  | Ast.Unop (Ast.Neg, operand) -> (
      let operand = fold env operand in
      match operand.Ast.desc with
      | Ast.Int n -> Option.get (expr_of_literal loc (Value.Vint (-n)))
      | _ -> rebuilt (Ast.Unop (Ast.Neg, operand)))
  | Ast.Seq (left, right) -> (
      let left = fold env left in
      let right = fold env right in
      (* A literal left side is effect-free: drop it. *)
      match literal_of left with
      | Some _ -> right
      | None -> rebuilt (Ast.Seq (left, right)))
  | Ast.On_remote (chan, packet) ->
      rebuilt (Ast.On_remote (chan, fold env packet))
  | Ast.On_neighbor (chan, packet) ->
      rebuilt (Ast.On_neighbor (chan, fold env packet))
  | Ast.Try (body, handlers) ->
      rebuilt
        (Ast.Try
           ( fold env body,
             List.map (fun (name, handler) -> (name, fold env handler)) handlers ))

let literal_env globals = List.map (fun (name, value) -> (name, Some value)) globals

let expr ~globals e = fold (literal_env globals) e

let program checked ~globals =
  let env = literal_env globals in
  let fold_decl decl =
    match decl with
    | Ast.Dval ({ Ast.bind_name; bind_type; bind_expr }, loc) ->
        Ast.Dval ({ Ast.bind_name; bind_type; bind_expr = fold env bind_expr }, loc)
    | Ast.Dfun f ->
        (* Function parameters shadow any same-named globals. *)
        let body_env =
          List.map (fun (param, _ty) -> (param, None)) f.Ast.params @ env
        in
        Ast.Dfun { f with Ast.fun_body = fold body_env f.Ast.fun_body }
    | Ast.Dexception _ -> decl
    | Ast.Dprotostate (ty, init, loc) -> Ast.Dprotostate (ty, fold env init, loc)
    | Ast.Dchannel chan ->
        let body_env =
          (chan.Ast.ps_name, None) :: (chan.Ast.ss_name, None)
          :: (chan.Ast.pkt_name, None) :: env
        in
        Ast.Dchannel
          {
            chan with
            Ast.body = fold body_env chan.Ast.body;
            initstate = Option.map (fold env) chan.Ast.initstate;
          }
  in
  {
    checked with
    Planp.Typecheck.program = List.map fold_decl checked.Planp.Typecheck.program;
  }

let rec count_nodes (expr : Ast.expr) =
  match expr.Ast.desc with
  | Ast.Int _ | Ast.Bool _ | Ast.String _ | Ast.Char _ | Ast.Unit | Ast.Host _
  | Ast.Var _ | Ast.Raise _ ->
      1
  | Ast.Call (_, args) -> 1 + List.fold_left (fun acc a -> acc + count_nodes a) 0 args
  | Ast.Tuple components ->
      1 + List.fold_left (fun acc c -> acc + count_nodes c) 0 components
  | Ast.Proj (_, operand) | Ast.Unop (_, operand) -> 1 + count_nodes operand
  | Ast.Let (bindings, body) ->
      1
      + List.fold_left
          (fun acc { Ast.bind_expr; _ } -> acc + count_nodes bind_expr)
          (count_nodes body) bindings
  | Ast.If (a, b, c) -> 1 + count_nodes a + count_nodes b + count_nodes c
  | Ast.Binop (_, a, b) | Ast.Seq (a, b) -> 1 + count_nodes a + count_nodes b
  | Ast.On_remote (_, packet) | Ast.On_neighbor (_, packet) ->
      1 + count_nodes packet
  | Ast.Try (body, handlers) ->
      1
      + List.fold_left
          (fun acc (_, handler) -> acc + count_nodes handler)
          (count_nodes body) handlers
