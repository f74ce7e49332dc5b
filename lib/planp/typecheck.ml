type error = { message : string; loc : Loc.t }

type checked = {
  program : Ast.program;
  proto_type : Ptype.t;
  proto_init : Ast.expr option;
  globals : (string * Ptype.t) list;
  exceptions : string list;
}

exception Fail of error

let fail loc fmt = Format.kasprintf (fun message -> raise (Fail { message; loc })) fmt

type env = {
  vals : (string * Ptype.t) list;  (* innermost first *)
  funs : (string, (string * Ptype.t) list * Ptype.t) Hashtbl.t;
  exns : (string, unit) Hashtbl.t;
  chans : (string, Ptype.t list ref) Hashtbl.t;  (* name -> packet overloads *)
  prims : Prim_sig.lookup;
}

let lookup_val env name = List.assoc_opt name env.vals

(* The result of checking an expression: [None] means the expression raises
   on every path (bottom), so it fits any context. *)
type result_ty = Ptype.t option

let join loc a b =
  match (a, b) with
  | None, other | other, None -> other
  | Some ta, Some tb ->
      if Ptype.equal ta tb then Some ta
      else fail loc "branches have different types: %s vs %s" (Ptype.to_string ta) (Ptype.to_string tb)

(* Demand a concrete type; a bottom (always-raising) subexpression is fine
   anywhere a value is expected, so substitute the expectation. *)
let demand loc expected (actual : result_ty) context =
  match actual with
  | None -> ()
  | Some ty ->
      if not (Ptype.equal ty expected) then
        fail loc "%s: expected %s, got %s" context (Ptype.to_string expected)
          (Ptype.to_string ty)

(* Every annotation the programmer writes goes through here: a hash table
   is keyed by [=], so its key type must be an equality type. *)
let rec check_annotation loc (ty : Ptype.t) =
  match ty with
  | Ptype.Thash (key, value) ->
      if not (Ptype.is_equality key) then
        fail loc "hash_table key type %s is not an equality type"
          (Ptype.to_string key);
      check_annotation loc key;
      check_annotation loc value
  | Ptype.Ttuple components -> List.iter (check_annotation loc) components
  | Ptype.Tint | Ptype.Tbool | Ptype.Tstring | Ptype.Tchar | Ptype.Tunit
  | Ptype.Thost | Ptype.Tblob | Ptype.Tip | Ptype.Ttcp | Ptype.Tudp
  | Ptype.Thash_any ->
      ()

(* The checker's result for every expression is also written into the
   node, so later passes (the JIT's templates) read types off the AST. *)
let rec check_expr env (expr : Ast.expr) : result_ty =
  let ty = check_desc env expr in
  expr.Ast.ty <- ty;
  ty

and check_desc env (expr : Ast.expr) : result_ty =
  let loc = expr.Ast.loc in
  match expr.Ast.desc with
  | Ast.Int _ -> Some Ptype.Tint
  | Ast.Bool _ -> Some Ptype.Tbool
  | Ast.String _ -> Some Ptype.Tstring
  | Ast.Char _ -> Some Ptype.Tchar
  | Ast.Unit -> Some Ptype.Tunit
  | Ast.Host _ -> Some Ptype.Thost
  | Ast.Var name -> (
      match lookup_val env name with
      | Some ty -> Some ty
      | None -> fail loc "unbound variable %s" name)
  | Ast.Call (name, args) -> check_call env loc name args
  | Ast.Tuple components ->
      if List.length components < 2 then
        fail loc "tuples need at least two components";
      let tys =
        List.map
          (fun component ->
            match check_expr env component with
            | Some ty -> ty
            | None -> fail component.Ast.loc "tuple component always raises")
          components
      in
      Some (Ptype.Ttuple tys)
  | Ast.Proj (index, operand) -> (
      match check_expr env operand with
      | Some (Ptype.Ttuple components) ->
          if index < 1 || index > List.length components then
            fail loc "#%d out of range for %d-tuple" index
              (List.length components)
          else Some (List.nth components (index - 1))
      | Some other ->
          fail loc "#%d applied to non-tuple type %s" index
            (Ptype.to_string other)
      | None -> fail loc "#%d applied to expression that always raises" index)
  | Ast.Let (bindings, body) ->
      let env =
        List.fold_left
          (fun env { Ast.bind_name; bind_type; bind_expr } ->
            check_annotation bind_expr.Ast.loc bind_type;
            demand bind_expr.Ast.loc bind_type (check_expr env bind_expr)
              (Printf.sprintf "binding of %s" bind_name);
            { env with vals = (bind_name, bind_type) :: env.vals })
          env bindings
      in
      check_expr env body
  | Ast.If (cond, then_branch, else_branch) ->
      demand cond.Ast.loc Ptype.Tbool (check_expr env cond) "if condition";
      let t1 = check_expr env then_branch in
      let t2 = check_expr env else_branch in
      join loc t1 t2
  | Ast.Binop (op, left, right) -> check_binop env loc op left right
  | Ast.Unop (Ast.Not, operand) ->
      demand operand.Ast.loc Ptype.Tbool (check_expr env operand) "not";
      Some Ptype.Tbool
  | Ast.Unop (Ast.Neg, operand) ->
      demand operand.Ast.loc Ptype.Tint (check_expr env operand) "negation";
      Some Ptype.Tint
  | Ast.Seq (left, right) ->
      demand left.Ast.loc Ptype.Tunit (check_expr env left)
        "sequence discards a non-unit value";
      check_expr env right
  | Ast.On_remote (chan, packet) | Ast.On_neighbor (chan, packet) ->
      check_send env loc chan packet;
      Some Ptype.Tunit
  | Ast.Raise exn_name ->
      if not (Hashtbl.mem env.exns exn_name) then
        fail loc "undeclared exception %s" exn_name;
      None
  | Ast.Try (body, handlers) ->
      let body_ty = check_expr env body in
      List.fold_left
        (fun acc (exn_name, handler) ->
          if not (Hashtbl.mem env.exns exn_name) then
            fail handler.Ast.loc "undeclared exception %s" exn_name;
          join loc acc (check_expr env handler))
        body_ty handlers

and check_call env loc name args =
  let arg_tys =
    List.map
      (fun arg ->
        match check_expr env arg with
        | Some ty -> ty
        | None -> fail arg.Ast.loc "argument always raises")
      args
  in
  match Hashtbl.find_opt env.funs name with
  | Some (params, ret_type) ->
      if List.length params <> List.length arg_tys then
        fail loc "%s expects %d argument(s), got %d" name (List.length params)
          (List.length arg_tys);
      List.iter2
        (fun (param_name, param_ty) arg_ty ->
          if not (Ptype.equal param_ty arg_ty) then
            fail loc "argument %s of %s: expected %s, got %s" param_name name
              (Ptype.to_string param_ty) (Ptype.to_string arg_ty))
        params arg_tys;
      Some ret_type
  | None -> (
      match env.prims name with
      | Some type_fn -> (
          match type_fn arg_tys with
          | Ok ty -> Some ty
          | Error message -> fail loc "primitive %s: %s" name message)
      | None -> fail loc "unknown function or primitive %s" name)

and check_binop env loc op left right =
  let tl = check_expr env left in
  let tr = check_expr env right in
  let concrete side = function
    | Some ty -> ty
    | None -> fail loc "%s operand of operator always raises" side
  in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
      demand left.Ast.loc Ptype.Tint tl "arithmetic";
      demand right.Ast.loc Ptype.Tint tr "arithmetic";
      Some Ptype.Tint
  | Ast.Concat ->
      demand left.Ast.loc Ptype.Tstring tl "concatenation";
      demand right.Ast.loc Ptype.Tstring tr "concatenation";
      Some Ptype.Tstring
  | Ast.And | Ast.Or ->
      demand left.Ast.loc Ptype.Tbool tl "boolean operator";
      demand right.Ast.loc Ptype.Tbool tr "boolean operator";
      Some Ptype.Tbool
  | Ast.Eq | Ast.Ne ->
      let ta = concrete "left" tl and tb = concrete "right" tr in
      if not (Ptype.equal ta tb) then
        fail loc "equality between different types: %s vs %s"
          (Ptype.to_string ta) (Ptype.to_string tb);
      if not (Ptype.is_equality ta) then
        fail loc "type %s does not support equality" (Ptype.to_string ta);
      Some Ptype.Tbool
  | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge ->
      let ta = concrete "left" tl and tb = concrete "right" tr in
      if not (Ptype.equal ta tb) then
        fail loc "comparison between different types: %s vs %s"
          (Ptype.to_string ta) (Ptype.to_string tb);
      (match ta with
      | Ptype.Tint | Ptype.Tchar | Ptype.Tstring -> ()
      | other ->
          fail loc "type %s does not support ordering" (Ptype.to_string other));
      Some Ptype.Tbool

and check_send env loc chan packet =
  let packet_ty =
    match check_expr env packet with
    | Some ty -> ty
    | None -> fail packet.Ast.loc "packet expression always raises"
  in
  if not (Ptype.is_packet packet_ty) then
    fail packet.Ast.loc "not a packet type: %s (must be a tuple headed by ip)"
      (Ptype.to_string packet_ty);
  if String.equal chan Ast.network_channel then ()
  else
    match Hashtbl.find_opt env.chans chan with
    | None -> fail loc "unknown channel %s" chan
    | Some overloads ->
        if not (List.exists (Ptype.equal packet_ty) !overloads) then
          fail loc "channel %s has no overload for packet type %s" chan
            (Ptype.to_string packet_ty)

let defaultable = function
  | Ptype.Tint | Ptype.Tbool | Ptype.Tstring | Ptype.Tchar | Ptype.Tunit
  | Ptype.Thost ->
      true
  | Ptype.Tblob | Ptype.Tip | Ptype.Ttcp | Ptype.Tudp | Ptype.Ttuple _
  | Ptype.Thash _ | Ptype.Thash_any ->
      false

(* Exceptions raised by the built-in partial primitives; always in scope. *)
let builtin_exceptions =
  [ "DivByZero"; "OutOfBounds"; "BadChar"; "BadAudio"; "BadImage" ]

let check ~prims program =
  try
    let env =
      {
        vals = [];
        funs = Hashtbl.create 16;
        exns = Hashtbl.create 8;
        chans = Hashtbl.create 8;
        prims;
      }
    in
    List.iter (fun name -> Hashtbl.replace env.exns name ()) builtin_exceptions;
    (* Pre-pass: collect channel overloads so OnRemote can target channels
       declared later (a channel may even send to itself across hops). *)
    List.iter
      (fun decl ->
        match decl with
        | Ast.Dchannel chan ->
            List.iter
              (check_annotation chan.Ast.chan_loc)
              [ chan.Ast.ps_type; chan.Ast.ss_type; chan.Ast.pkt_type ];
            if not (Ptype.is_packet chan.Ast.pkt_type) then
              fail chan.Ast.chan_loc
                "channel %s: packet parameter must be a tuple headed by ip, got %s"
                chan.Ast.chan_name
                (Ptype.to_string chan.Ast.pkt_type);
            let overloads =
              match Hashtbl.find_opt env.chans chan.Ast.chan_name with
              | Some overloads -> overloads
              | None ->
                  let overloads = ref [] in
                  Hashtbl.add env.chans chan.Ast.chan_name overloads;
                  overloads
            in
            if List.exists (Ptype.equal chan.Ast.pkt_type) !overloads then
              fail chan.Ast.chan_loc
                "channel %s: duplicate overload for packet type %s"
                chan.Ast.chan_name
                (Ptype.to_string chan.Ast.pkt_type);
            overloads := !overloads @ [ chan.Ast.pkt_type ]
        | Ast.Dval _ | Ast.Dfun _ | Ast.Dexception _ | Ast.Dprotostate _ -> ())
      program;
    (* Protocol-state consistency. *)
    let declared_proto =
      List.filter_map
        (function
          | Ast.Dprotostate (ty, init, loc) -> Some (ty, init, loc)
          | Ast.Dval _ | Ast.Dfun _ | Ast.Dexception _ | Ast.Dchannel _ -> None)
        program
    in
    let proto_type, proto_init =
      match declared_proto with
      | [] -> (
          match Ast.channels program with
          | [] -> (Ptype.Tunit, None)
          | chan :: _ ->
              if not (defaultable chan.Ast.ps_type) then
                fail chan.Ast.chan_loc
                  "protocol state of type %s needs an explicit protostate declaration"
                  (Ptype.to_string chan.Ast.ps_type);
              (chan.Ast.ps_type, None))
      | [ (ty, init, loc) ] ->
          check_annotation loc ty;
          (ty, Some init)
      | _ :: (_, _, loc) :: _ -> fail loc "multiple protostate declarations"
    in
    List.iter
      (fun chan ->
        if not (Ptype.equal chan.Ast.ps_type proto_type) then
          fail chan.Ast.chan_loc
            "channel %s: protocol-state type %s disagrees with %s"
            chan.Ast.chan_name
            (Ptype.to_string chan.Ast.ps_type)
            (Ptype.to_string proto_type))
      (Ast.channels program);
    (* Main pass, in declaration order. *)
    let env = ref env in
    let globals = ref [] in
    let exceptions = ref [] in
    List.iter
      (fun decl ->
        match decl with
        | Ast.Dval ({ Ast.bind_name; bind_type; bind_expr }, loc) ->
            if List.mem_assoc bind_name !env.vals then
              fail loc "duplicate global value %s" bind_name;
            check_annotation loc bind_type;
            demand bind_expr.Ast.loc bind_type (check_expr !env bind_expr)
              (Printf.sprintf "global %s" bind_name);
            env := { !env with vals = (bind_name, bind_type) :: !env.vals };
            globals := (bind_name, bind_type) :: !globals
        | Ast.Dfun { Ast.fun_name; params; ret_type; fun_body; fun_loc } ->
            if Hashtbl.mem !env.funs fun_name then
              fail fun_loc "duplicate function %s" fun_name;
            List.iter (fun (_, ty) -> check_annotation fun_loc ty) params;
            check_annotation fun_loc ret_type;
            (* The function is not yet visible in its own body: recursion is
               impossible by construction (local termination, paper §2.1). *)
            let body_env =
              { !env with vals = List.rev_append params !env.vals }
            in
            demand fun_body.Ast.loc ret_type (check_expr body_env fun_body)
              (Printf.sprintf "body of %s" fun_name);
            Hashtbl.add !env.funs fun_name (params, ret_type)
        | Ast.Dexception (name, loc) ->
            if Hashtbl.mem !env.exns name then
              fail loc "duplicate exception %s" name;
            Hashtbl.add !env.exns name ();
            exceptions := name :: !exceptions
        | Ast.Dprotostate (_, init, loc) ->
            demand loc proto_type (check_expr !env init) "protostate initializer"
        | Ast.Dchannel chan ->
            (match chan.Ast.initstate with
            | Some init ->
                demand init.Ast.loc chan.Ast.ss_type (check_expr !env init)
                  (Printf.sprintf "initstate of channel %s" chan.Ast.chan_name)
            | None ->
                if not (defaultable chan.Ast.ss_type) then
                  fail chan.Ast.chan_loc
                    "channel %s: state type %s needs an initstate"
                    chan.Ast.chan_name
                    (Ptype.to_string chan.Ast.ss_type));
            let body_env =
              {
                !env with
                vals =
                  (chan.Ast.pkt_name, chan.Ast.pkt_type)
                  :: (chan.Ast.ss_name, chan.Ast.ss_type)
                  :: (chan.Ast.ps_name, chan.Ast.ps_type)
                  :: !env.vals;
              }
            in
            let expected = Ptype.Ttuple [ chan.Ast.ps_type; chan.Ast.ss_type ] in
            let body_ty = check_expr body_env chan.Ast.body in
            (match body_ty with
            | None ->
                fail chan.Ast.chan_loc
                  "channel %s: body raises on every path" chan.Ast.chan_name
            | Some ty ->
                if not (Ptype.equal ty expected) then
                  fail chan.Ast.chan_loc
                    "channel %s: body must return %s, got %s" chan.Ast.chan_name
                    (Ptype.to_string expected) (Ptype.to_string ty)))
      program;
    Ok
      {
        program;
        proto_type;
        proto_init;
        globals = List.rev !globals;
        exceptions = List.rev !exceptions;
      }
  with Fail error -> Error error

let check_expr ~prims ~vals expr =
  let env =
    {
      vals;
      funs = Hashtbl.create 1;
      exns = Hashtbl.create 8;
      chans = Hashtbl.create 1;
      prims;
    }
  in
  List.iter (fun name -> Hashtbl.replace env.exns name ()) builtin_exceptions;
  try Ok (check_expr env expr) with Fail error -> Error error

let pp_error fmt { message; loc } =
  Format.fprintf fmt "%a: %s" Loc.pp loc message

let check_exn ~prims program =
  match check ~prims program with
  | Ok checked -> checked
  | Error error -> failwith (Format.asprintf "%a" pp_error error)
