module Ast = Planp.Ast
module Value = Planp_runtime.Value
module World = Planp_runtime.World
module Prim = Planp_runtime.Prim
module Backend = Planp_runtime.Backend

(* Run-time state of compiled code: the world and a slice of the channel's
   slot arena.  The arena is allocated once per compiled channel and reused
   for every packet; a function call carves its frame out of the region
   above [top] instead of allocating.  A slot lives in [data] when its
   value is boxed and in [ints] when its type is int, host or bool (a bool
   as 0 or 1), so unboxed locals cost no allocation and no write barrier.
   Everything else (names, types, AST) is gone after compilation.

   Safety of the reuse: packet executions never nest.  Channel code runs
   only from the engine's event loop, and the world's [emit]/[deliver]
   effects enqueue further work through the engine rather than executing
   another channel synchronously.  PLAN-P functions cannot recurse (the
   type checker only admits calls to previously declared functions), so a
   call site's frame region is never live twice. *)
type arena = {
  mutable data : Value.t array;
  mutable ints : int array;
  mutable top : int;
}

type rt = { world : World.t; arena : arena; base : int }

(* How a template returns its value, chosen from the expression's type:
   int and host as an OCaml int, bool as an OCaml bool, everything else
   boxed. A value is boxed only where it enters [Value.t]. *)
type _ rep =
  | Int : int rep
  | Host : int rep
  | Bool : bool rep
  | Val : Value.t rep
  | Pair : (Value.t * Value.t) rep
      (** a channel body's (protocol, channel) state result, returned
          without building its tuple *)
type some_rep = Rep : 'a rep -> some_rep
type code = { entry : rt -> Value.t; frame_size : int; param_count : int }

let make_arena size =
  let size = Int.max size 16 in
  { data = Array.make size Value.Vunit; ints = Array.make size 0; top = 0 }

let ensure arena needed =
  if needed > Array.length arena.data then (
    let cap = ref (2 * Array.length arena.data) in
    while needed > !cap do
      cap := !cap * 2
    done;
    let data = Array.make !cap Value.Vunit in
    Array.blit arena.data 0 data 0 arena.top;
    let ints = Array.make !cap 0 in
    Array.blit arena.ints 0 ints 0 arena.top;
    arena.data <- data;
    arena.ints <- ints)

let rep_of_type : Planp.Ptype.t option -> some_rep = function
  | Some Planp.Ptype.Tint -> Rep Int
  | Some Planp.Ptype.Thost -> Rep Host
  | Some Planp.Ptype.Tbool -> Rep Bool
  | Some _ | None -> Rep Val

let mismatch () = raise (Value.Runtime_error "specialize: template type mismatch")

(* [convert src f dst] adapts a template at the boundary between two
   representations: box, unbox, or nothing. *)
let convert : type a b. a rep -> (rt -> a) -> b rep -> rt -> b =
 fun src f dst ->
  match (src, dst) with
  | Int, Int -> f
  | Host, Host -> f
  | Int, Host -> f
  | Host, Int -> f
  | Bool, Bool -> f
  | Val, Val -> f
  | Int, Val -> fun rt -> Value.Vint (f rt)
  | Host, Val -> fun rt -> Value.Vhost (f rt)
  | Bool, Val -> fun rt -> Value.vbool (f rt)
  | Val, Int -> fun rt -> Value.as_int (f rt)
  | Val, Host -> fun rt -> Value.as_host (f rt)
  | Val, Bool -> fun rt -> Value.as_bool (f rt)
  | Pair, Pair -> f
  | Val, Pair -> (
      fun rt ->
        match f rt with
        | Value.Vtuple [| a; b |] -> (a, b)
        | value -> Value.type_error ~expected:"(protocol, channel) state pair" value)
  | Pair, Val ->
      fun rt ->
        let a, b = f rt in
        Value.Vtuple [| a; b |]
  | (Int | Host), Bool | Bool, (Int | Host) -> mismatch ()
  | (Int | Host | Bool), Pair | Pair, (Int | Host | Bool) -> mismatch ()

(* A compile-time constant in a representation. *)
let constant : type a. a rep -> Value.t -> rt -> a =
 fun rep v ->
  match (rep, v) with
  | Val, _ -> fun _ -> v
  | Int, (Value.Vint n | Value.Vhost n) -> fun _ -> n
  | Host, (Value.Vint n | Value.Vhost n) -> fun _ -> n
  | Bool, Value.Vbool b -> fun _ -> b
  | Pair, Value.Vtuple [| a; b |] -> fun _ -> (a, b)
  | (Int | Host | Bool | Pair), _ -> mismatch ()

let unbox : type a. a rep -> Value.t -> a =
 fun rep v ->
  match rep with
  | Val -> v
  | Int -> Value.as_int v
  | Host -> Value.as_host v
  | Bool -> Value.as_bool v
  | Pair -> (
      match v with
      | Value.Vtuple [| a; b |] -> (a, b)
      | value -> Value.type_error ~expected:"(protocol, channel) state pair" value)

(* A slot read and a slot write, by representation. *)
let read : type a. a rep -> int -> rt -> a =
 fun rep slot ->
  match rep with
  | Val -> fun rt -> rt.arena.data.(rt.base + slot)
  | Int -> fun rt -> rt.arena.ints.(rt.base + slot)
  | Host -> fun rt -> rt.arena.ints.(rt.base + slot)
  | Bool -> fun rt -> rt.arena.ints.(rt.base + slot) <> 0
  | Pair -> mismatch ()

let store : type a. a rep -> arena -> int -> a -> unit =
 fun rep arena i v ->
  match rep with
  | Val -> arena.data.(i) <- v
  | Int -> arena.ints.(i) <- v
  | Host -> arena.ints.(i) <- v
  | Bool -> arena.ints.(i) <- Bool.to_int v
  | Pair -> mismatch ()

(* Compile-time environment: where does a name live? A tuple of ints,
   hosts and bools that is only ever projected or used as a table key
   lives as its components, in consecutive unboxed slots from [first]. *)
type binding =
  | Global of Value.t
  | Slot : 'a rep * int -> binding
  | Parts of { first : int; reps : some_rep array }

type ctx = {
  names : (string * binding) list;  (* innermost first *)
  next_slot : int;
  max_slot : int ref;  (* high-water mark, shared across scope extensions *)
  funs : (string, fun_code) Hashtbl.t;
}

and fun_code =
  | Fun : {
      body : rt -> 'a;
      ret : 'a rep;
      frame : int;
      params : some_rep list;
    }
      -> fun_code

let bind ctx name rep =
  let slot = ctx.next_slot in
  if slot + 1 > !(ctx.max_slot) then ctx.max_slot := slot + 1;
  ( { ctx with names = (name, Slot (rep, slot)) :: ctx.names; next_slot = slot + 1 },
    slot )

let bind_parts ctx name reps =
  let first = ctx.next_slot in
  let next_slot = first + Array.length reps in
  if next_slot > !(ctx.max_slot) then ctx.max_slot := next_slot;
  ( { ctx with names = (name, Parts { first; reps }) :: ctx.names; next_slot },
    first )

let lookup ctx name =
  match List.assoc_opt name ctx.names with
  | Some binding -> binding
  | None ->
      raise
        (Value.Runtime_error
           (Printf.sprintf "specialize: unbound variable %s" name))

let int_rep : Planp.Ptype.t option -> int rep option = function
  | Some Planp.Ptype.Tint -> Some Int
  | Some Planp.Ptype.Thost -> Some Host
  | Some _ | None -> None

(* The type both operands of a comparison share (one may always raise). *)
let operand_type (left : Ast.expr) (right : Ast.expr) =
  match left.Ast.ty with Some _ as ty -> ty | None -> right.Ast.ty

let div_by_zero = Value.Planp_raise "DivByZero"

(* Operands are evaluated left to right, as in every backend. *)
let int_binop op (l : rt -> int) (r : rt -> int) : rt -> int =
  match op with
  | Ast.Add -> fun rt -> let a = l rt in a + r rt
  | Ast.Sub -> fun rt -> let a = l rt in a - r rt
  | Ast.Mul -> fun rt -> let a = l rt in a * r rt
  | Ast.Div ->
      fun rt ->
        let a = l rt in
        let b = r rt in
        if b = 0 then raise div_by_zero else a / b
  | Ast.Mod ->
      fun rt ->
        let a = l rt in
        let b = r rt in
        if b = 0 then raise div_by_zero else a mod b
  | _ -> mismatch ()

(* The same operators against a constant right operand, which needs no
   template call. *)
let int_binop_const op (l : rt -> int) c : rt -> int =
  match op with
  | Ast.Add -> fun rt -> l rt + c
  | Ast.Sub -> fun rt -> l rt - c
  | Ast.Mul -> fun rt -> l rt * c
  | Ast.Div when c <> 0 -> fun rt -> l rt / c
  | Ast.Mod when c <> 0 -> fun rt -> l rt mod c
  | Ast.Div | Ast.Mod ->
      fun rt ->
        let _ = l rt in
        raise div_by_zero
  | _ -> mismatch ()

let int_compare_const op (l : rt -> int) c : rt -> bool =
  match op with
  | Ast.Eq -> fun rt -> Int.equal (l rt) c
  | Ast.Ne -> fun rt -> not (Int.equal (l rt) c)
  | Ast.Lt -> fun rt -> l rt < c
  | Ast.Gt -> fun rt -> l rt > c
  | Ast.Le -> fun rt -> l rt <= c
  | Ast.Ge -> fun rt -> l rt >= c
  | _ -> mismatch ()

let int_compare op (l : rt -> int) (r : rt -> int) : rt -> bool =
  match op with
  | Ast.Eq -> fun rt -> let a = l rt in Int.equal a (r rt)
  | Ast.Ne -> fun rt -> let a = l rt in not (Int.equal a (r rt))
  | Ast.Lt -> fun rt -> let a = l rt in a < r rt
  | Ast.Gt -> fun rt -> let a = l rt in a > r rt
  | Ast.Le -> fun rt -> let a = l rt in a <= r rt
  | Ast.Ge -> fun rt -> let a = l rt in a >= r rt
  | _ -> mismatch ()

let value_compare op (l : rt -> Value.t) (r : rt -> Value.t) : rt -> bool =
  let ordered test rt =
    let a = l rt in
    test (Value.compare_values a (r rt))
  in
  match op with
  | Ast.Eq -> fun rt -> let a = l rt in Value.equal a (r rt)
  | Ast.Ne -> fun rt -> let a = l rt in not (Value.equal a (r rt))
  | Ast.Lt -> ordered (fun c -> c < 0)
  | Ast.Gt -> ordered (fun c -> c > 0)
  | Ast.Le -> ordered (fun c -> c <= 0)
  | Ast.Ge -> ordered (fun c -> c >= 0)
  | _ -> mismatch ()

let is_scalar (ty : Planp.Ptype.t) =
  match ty with
  | Planp.Ptype.Tint | Planp.Ptype.Thost | Planp.Ptype.Tbool -> true
  | _ -> false

let unboxed_rep : type a. a rep -> bool = function
  | Val | Pair -> false
  | Int | Host | Bool -> true

(* Whether [compile] reads a comparison's operands unboxed. *)
let unboxed_compare op ty =
  match (op, ty) with
  | _, Some Planp.Ptype.Tint -> true
  | (Ast.Eq | Ast.Ne), Some (Planp.Ptype.Thost | Planp.Ptype.Tbool) -> true
  | _ -> false

(* A key's type, when its table keeps it flat. *)
let flat_key (key : Ast.expr) =
  match key.Ast.ty with
  | Some ty when Option.is_some (Value.Table.parts_width ty) -> Some ty
  | Some _ | None -> None

(* [boxed_use ctx name ~unboxed e]: does [e] read [name] where [compile]
   wants its value boxed? [unboxed] says how [e]'s own value is wanted.
   This mirrors the representations [compile] asks for, so a binding
   lives unboxed exactly when no use of it would box it again. *)
let rec boxed_use ctx name ~unboxed (e : Ast.expr) =
  let go unboxed e = boxed_use ctx name ~unboxed e in
  match e.Ast.desc with
  | Ast.Var n -> String.equal n name && not unboxed
  | Ast.Int _ | Ast.Bool _ | Ast.String _ | Ast.Char _ | Ast.Unit | Ast.Host _
  | Ast.Raise _ ->
      false
  | Ast.Let (bindings, body) -> boxed_in_scope ctx name ~unboxed bindings body
  | Ast.If (c, a, b) -> go true c || go unboxed a || go unboxed b
  | Ast.Seq (l, r) -> go false l || go unboxed r
  | Ast.Try (body, handlers) ->
      go unboxed body || List.exists (fun (_, h) -> go unboxed h) handlers
  | Ast.Binop
      ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.And | Ast.Or), l, r)
    ->
      go true l || go true r
  | Ast.Binop (Ast.Concat, l, r) -> go false l || go false r
  | Ast.Binop (op, l, r) ->
      let u = unboxed_compare op (operand_type l r) in
      go u l || go u r
  | Ast.Unop (_, x) -> go true x
  | Ast.Tuple components -> List.exists (go false) components
  | Ast.Proj (_, { Ast.desc = Ast.Var n; _ }) when String.equal n name -> false
  | Ast.Proj (_, x) -> go false x
  | Ast.On_remote (_, x) | Ast.On_neighbor (_, x) -> go false x
  | Ast.Call (f, args) -> (
      match Hashtbl.find_opt ctx.funs f with
      | Some (Fun fc) when List.length fc.params = List.length args ->
          List.exists2 (fun (Rep r) a -> go (unboxed_rep r) a) fc.params args
      | Some _ -> List.exists (go false) args
      | None -> (
          (* Only a primitive's second argument can be wanted unboxed (a
             setter's int, a table key), and a use that is not boxed in a
             boxed context is not boxed in any: look the primitive up only
             when that argument would box [name]. *)
          let rec key_use (k : Ast.expr) =
            match k.Ast.desc with
            | Ast.Tuple cs -> List.exists key_use cs
            | Ast.Var n when String.equal n name -> false
            | _ -> go (match k.Ast.ty with Some ty -> is_scalar ty | None -> false) k
          in
          match args with
          | first :: second :: rest ->
              go false first
              || List.exists (go false) rest
              || go false second
                 && (match (Prim.find f, args) with
                 | Some { Prim.typed = Prim.With_int _; _ }, [ _; b ] ->
                     go (Option.is_some (int_rep b.Ast.ty)) b
                 | ( Some
                       {
                         Prim.typed =
                           Prim.Key_get _ | Prim.Key_mem _ | Prim.Key_set _
                           | Prim.Key_remove _;
                         _;
                       },
                     _ )
                   when Option.is_some (flat_key second) ->
                     key_use second
                 | _ -> true)
          | args -> List.exists (go false) args))

(* The uses of a binding: the later bindings of its [let], then the body;
   a rebinding of the name ends its scope. *)
and boxed_in_scope ctx name ~unboxed bindings body =
  match bindings with
  | [] -> boxed_use ctx name ~unboxed body
  | { Ast.bind_name; bind_type; bind_expr } :: rest ->
      boxed_use ctx name ~unboxed:(is_scalar bind_type) bind_expr
      || ((not (String.equal bind_name name))
         && boxed_in_scope ctx name ~unboxed rest body)

(* A parameter lives unboxed when its type allows it and no use boxes it. *)
let param_rep ctx name ty ~unboxed body =
  match rep_of_type (Some ty) with
  | Rep r when unboxed_rep r && not (boxed_use ctx name ~unboxed body) -> Rep r
  | Rep _ -> Rep Val

let parts_reps (ty : Planp.Ptype.t) =
  match ty with
  | Planp.Ptype.Ttuple components when List.for_all is_scalar components ->
      Some (Array.of_list (List.map (fun c -> rep_of_type (Some c)) components))
  | _ -> None

(* Box a value held as parts. *)
let box_parts first reps rt =
  Value.Vtuple
    (Array.mapi
       (fun i (Rep r) ->
         let v = rt.arena.ints.(rt.base + first + i) in
         match r with
         | Int -> Value.Vint v
         | Host -> Value.Vhost v
         | Bool -> Value.vbool (v <> 0)
         | Val | Pair -> mismatch ())
       reps)

(* An int or host operand known at compile time. *)
let int_constant ctx (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Int n | Ast.Host n -> Some n
  | Ast.Var name -> (
      match lookup ctx name with
      | Global (Value.Vint n | Value.Vhost n) -> Some n
      | Global _ | Slot _ | Parts _ -> None)
  | _ -> None

(* The boxed slot a variable lives in, so a template can read it in place
   instead of calling the variable's own template. *)
let boxed_slot ctx (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Var name -> (
      match lookup ctx name with
      | Slot (Val, slot) -> Some slot
      | Slot _ | Global _ | Parts _ -> None)
  | _ -> None

(* [compile ctx rep e] is a template returning [e]'s value in [rep]. The
   control forms pass [rep] down to their branches, so a join never boxes;
   every other form is compiled in the representation of its own type and
   converted once. *)
let rec compile : type a. ctx -> a rep -> Ast.expr -> rt -> a =
 fun ctx rep expr ->
  match expr.Ast.desc with
  | Ast.Let (bindings, body) ->
      let rec chain ctx = function
        | [] -> compile ctx rep body
        | { Ast.bind_name; bind_type; bind_expr } :: rest -> (
            let boxed () =
              boxed_in_scope ctx bind_name ~unboxed:(unboxed_rep rep) rest body
            in
            match (rep_of_type (Some bind_type), parts_reps bind_type) with
            | Rep brep, _ when unboxed_rep brep && not (boxed ()) ->
                bind_slot ctx brep bind_name bind_expr rest
            | _, Some reps when not (boxed ()) ->
                bind_tuple_parts ctx reps bind_name bind_expr rest
            | _ -> bind_slot ctx Val bind_name bind_expr rest)
      and bind_slot : type b. ctx -> b rep -> string -> Ast.expr -> Ast.binding list -> rt -> a =
       fun ctx brep name bind_expr rest ->
        let value_code = compile ctx brep bind_expr in
        let ctx', slot = bind ctx name brep in
        let rest_code = chain ctx' rest in
        match brep with
        | Val ->
            fun rt ->
              let v = value_code rt in
              rt.arena.data.(rt.base + slot) <- v;
              rest_code rt
        | Int ->
            fun rt ->
              let v = value_code rt in
              rt.arena.ints.(rt.base + slot) <- v;
              rest_code rt
        | Host ->
            fun rt ->
              let v = value_code rt in
              rt.arena.ints.(rt.base + slot) <- v;
              rest_code rt
        | Bool ->
            fun rt ->
              let v = value_code rt in
              rt.arena.ints.(rt.base + slot) <- Bool.to_int v;
              rest_code rt
        | Pair -> mismatch ()
      and bind_tuple_parts ctx reps name bind_expr rest =
        let ctx', first = bind_parts ctx name reps in
        (* The components are compiled above the reserved slots, so a
           [let] inside one cannot reuse a slot already written. *)
        let inner = { ctx with next_slot = ctx'.next_slot } in
        let init : rt -> unit =
          match bind_expr.Ast.desc with
          | Ast.Tuple components when List.length components = Array.length reps ->
              let writers =
                Array.of_list
                  (List.mapi
                     (fun i (component, Rep r) ->
                       let code = compile inner r component in
                       fun rt ->
                         let v = code rt in
                         store r rt.arena (rt.base + first + i) v)
                     (List.combine components (Array.to_list reps)))
              in
              fun rt ->
                for i = 0 to Array.length writers - 1 do
                  (Array.unsafe_get writers i) rt
                done
          | _ ->
              let code = compile inner Val bind_expr in
              fun rt ->
                let components = Value.as_tuple (code rt) in
                for i = 0 to Array.length reps - 1 do
                  let (Rep r) = reps.(i) in
                  store r rt.arena (rt.base + first + i) (unbox r components.(i))
                done
        in
        let rest_code = chain ctx' rest in
        fun rt ->
          init rt;
          rest_code rt
      in
      chain ctx bindings
  | Ast.If (cond, then_branch, else_branch) ->
      let cond_code = compile ctx Bool cond in
      let then_code = compile ctx rep then_branch in
      let else_code = compile ctx rep else_branch in
      fun rt -> if cond_code rt then then_code rt else else_code rt
  | Ast.Seq (left, right) ->
      let l = compile ctx Val left and r = compile ctx rep right in
      fun rt ->
        let _unit = l rt in
        r rt
  | Ast.Raise exn_name ->
      let exn = Value.Planp_raise exn_name in
      fun _ -> raise exn
  | Ast.Try (body, handlers) ->
      let body_code = compile ctx rep body in
      let handler_codes =
        List.map (fun (exn_name, handler) -> (exn_name, compile ctx rep handler)) handlers
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
  | Ast.Int n -> constant rep (Value.Vint n)
  | Ast.Bool b -> constant rep (Value.vbool b)
  | Ast.String s -> constant rep (Value.Vstring s)
  | Ast.Char c -> constant rep (Value.Vchar c)
  | Ast.Unit -> constant rep Value.Vunit
  | Ast.Host h -> constant rep (Value.Vhost h)
  | Ast.Var name -> (
      match lookup ctx name with
      | Global v -> constant rep v
      | Slot (srep, slot) -> convert srep (read srep slot) rep
      | Parts { first; reps } -> convert Val (box_parts first reps) rep)
  | Ast.Call (name, args) -> (
      match Hashtbl.find_opt ctx.funs name with
      | Some (Fun fc) -> convert fc.ret (compile_fun_call ctx name fc.body fc.frame fc.params args) rep
      | None -> compile_prim ctx rep expr name args)
  | Ast.Tuple [ a; b ] when (match rep with Pair -> true | _ -> false) -> (
      let a = compile ctx Val a and b = compile ctx Val b in
      match rep with
      | Pair ->
          fun rt ->
            let va = a rt in
            (va, b rt)
      | _ -> mismatch ())
  | Ast.Tuple components -> (
      (* Pairs and triples are array literals; the lets keep components
         evaluating left to right. *)
      let tuple : rt -> Value.t =
        match Array.of_list (List.map (compile ctx Val) components) with
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
        | codes -> fun rt -> Value.Vtuple (Array.map (fun c -> c rt) codes)
      in
      convert Val tuple rep)
  | Ast.Proj (index, { Ast.desc = Ast.Var name; _ })
    when (match lookup ctx name with Parts _ -> true | _ -> false) -> (
      match lookup ctx name with
      | Parts { first; reps } ->
          let (Rep r) = reps.(index - 1) in
          convert r (read r (first + index - 1)) rep
      | Global _ | Slot _ -> mismatch ())
  | Ast.Proj (index, operand) ->
      let i = index - 1 in
      let component =
        match boxed_slot ctx operand with
        | Some slot -> (
            fun rt ->
              match rt.arena.data.(rt.base + slot) with
              | Value.Vtuple components -> components.(i)
              | value -> Value.type_error ~expected:"tuple" value)
        | None -> (
            let code = compile ctx Val operand in
            fun rt ->
              match code rt with
              | Value.Vtuple components -> components.(i)
              | value -> Value.type_error ~expected:"tuple" value)
      in
      convert Val component rep
  | Ast.Binop (Ast.And, left, right) ->
      let l = compile ctx Bool left and r = compile ctx Bool right in
      convert Bool (fun rt -> l rt && r rt) rep
  | Ast.Binop (Ast.Or, left, right) ->
      let l = compile ctx Bool left and r = compile ctx Bool right in
      convert Bool (fun rt -> l rt || r rt) rep
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), left, right) ->
      let code =
        match int_constant ctx right with
        | Some c -> int_binop_const op (compile ctx Int left) c
        | None -> int_binop op (compile ctx Int left) (compile ctx Int right)
      in
      convert Int code rep
  | Ast.Binop (Ast.Concat, left, right) ->
      let l = compile ctx Val left and r = compile ctx Val right in
      let concat rt =
        let a = Value.as_string (l rt) in
        Value.Vstring (a ^ Value.as_string (r rt))
      in
      convert Val concat rep
  | Ast.Binop (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge) as op), left, right)
    ->
      let test =
        match (op, operand_type left right) with
        | _, Some Planp.Ptype.Tint -> (
            match int_constant ctx right with
            | Some c -> int_compare_const op (compile ctx Int left) c
            | None -> int_compare op (compile ctx Int left) (compile ctx Int right))
        | (Ast.Eq | Ast.Ne), Some Planp.Ptype.Thost -> (
            match int_constant ctx right with
            | Some c -> int_compare_const op (compile ctx Host left) c
            | None -> int_compare op (compile ctx Host left) (compile ctx Host right))
        | (Ast.Eq | Ast.Ne), Some Planp.Ptype.Tbool ->
            let l = compile ctx Bool left and r = compile ctx Bool right in
            if op = Ast.Eq then fun rt -> let a = l rt in Bool.equal a (r rt)
            else fun rt -> let a = l rt in not (Bool.equal a (r rt))
        | _ -> value_compare op (compile ctx Val left) (compile ctx Val right)
      in
      convert Bool test rep
  | Ast.Unop (Ast.Not, operand) ->
      let code = compile ctx Bool operand in
      convert Bool (fun rt -> not (code rt)) rep
  | Ast.Unop (Ast.Neg, operand) ->
      let code = compile ctx Int operand in
      convert Int (fun rt -> -code rt) rep
  | Ast.On_remote (chan, packet) ->
      let code = compile ctx Val packet in
      convert Val
        (fun rt ->
          rt.world.World.emit World.Remote ~chan (code rt);
          Value.Vunit)
        rep
  | Ast.On_neighbor (chan, packet) ->
      let code = compile ctx Val packet in
      convert Val
        (fun rt ->
          rt.world.World.emit World.Neighbor ~chan (code rt);
          Value.Vunit)
        rep

and compile_fun_call : type r.
    ctx -> string -> (rt -> r) -> int -> some_rep list -> Ast.expr list -> rt -> r =
 fun ctx name body frame params args ->
  if List.length params <> List.length args then
    raise (Value.Runtime_error ("specialize: bad arity for " ^ name));
  (* Each argument is evaluated in the caller's frame and stored straight
     into its parameter slot of the callee's. *)
  let writers =
    Array.of_list
      (List.mapi
         (fun i (Rep prep, arg) ->
           let code = compile ctx prep arg in
           fun rt base ->
             let v = code rt in
             store prep rt.arena (base + i) v)
         (List.combine params args))
  in
  fun rt ->
    let arena = rt.arena in
    let base = arena.top in
    ensure arena (base + frame);
    (* Bump before evaluating arguments: a call inside an argument
       expression then builds its own frame above this one. *)
    arena.top <- base + frame;
    for i = 0 to Array.length writers - 1 do
      (Array.unsafe_get writers i) rt base
    done;
    let result = body { world = rt.world; arena; base } in
    arena.top <- base;
    result

(* A primitive call: through its typed entry when the types at the call
   site fit one, otherwise through [impl] with boxed arguments. *)
and compile_prim : type a. ctx -> a rep -> Ast.expr -> string -> Ast.expr list -> rt -> a =
 fun ctx rep expr name args ->
  let prim = Prim.find_exn name in
  match (prim.Prim.typed, args) with
  | Prim.Read_int read, [ a ] when Option.is_some (int_rep expr.Ast.ty) ->
      let code =
        match boxed_slot ctx a with
        | Some slot -> fun rt -> read rt.arena.data.(rt.base + slot)
        | None ->
            let a = compile ctx Val a in
            fun rt -> read (a rt)
      in
      convert (Option.get (int_rep expr.Ast.ty)) code rep
  | Prim.Read_bool read, [ a ] ->
      let code =
        match boxed_slot ctx a with
        | Some slot -> fun rt -> read rt.arena.data.(rt.base + slot)
        | None ->
            let a = compile ctx Val a in
            fun rt -> read (a rt)
      in
      convert Bool code rep
  | Prim.With_int set, [ a; b ] when Option.is_some (int_rep b.Ast.ty) ->
      let a = compile ctx Val a
      and b = compile ctx (Option.get (int_rep b.Ast.ty)) b in
      convert Val
        (fun rt ->
          let va = a rt in
          set va (b rt))
        rep
  | ( (Prim.Key_get _ | Prim.Key_mem _ | Prim.Key_set _ | Prim.Key_remove _),
      table :: key :: rest )
    when Option.is_some (flat_key key) -> (
      let fill, parts = compile_key ctx key (Option.get (flat_key key)) in
      let table =
        match boxed_slot ctx table with
        | Some slot -> fun rt -> rt.arena.data.(rt.base + slot)
        | None -> compile ctx Val table
      in
      let third = List.map (compile ctx Val) rest in
      match (prim.Prim.typed, third) with
      | Prim.Key_get get, [ default ] ->
          convert Val
            (fun rt ->
              let t = table rt in
              fill rt;
              let d = default rt in
              get t parts d)
            rep
      | Prim.Key_set set, [ value ] ->
          convert Val
            (fun rt ->
              let t = table rt in
              fill rt;
              let v = value rt in
              set t parts v;
              Value.Vunit)
            rep
      | Prim.Key_mem mem, [] ->
          convert Bool
            (fun rt ->
              let t = table rt in
              fill rt;
              mem t parts)
            rep
      | Prim.Key_remove remove, [] ->
          convert Val
            (fun rt ->
              let t = table rt in
              fill rt;
              remove t parts;
              Value.Vunit)
            rep
      | _ -> convert Val (compile_boxed_prim ctx prim args) rep)
  | _ -> convert Val (compile_boxed_prim ctx prim args) rep

and compile_boxed_prim ctx prim args : rt -> Value.t =
  let arg_codes = Array.of_list (List.map (compile ctx Val) args) in
  let impl = prim.Prim.impl in
  (* Per-call-site scratch argument buffers: functions cannot
     recurse and packet executions never nest, so each site's
     buffer is dead again by the time the primitive returns (the
     Prim.impl contract forbids retaining it). *)
  match arg_codes with
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
        impl rt.world scratch

(* [compile_key ctx key ty] evaluates a flat key straight into its parts,
   in a buffer owned by the call site (reused like the argument scratch):
   a tuple literal's scalar components never box. *)
and compile_key ctx key ty =
  let parts = Array.make (Option.get (Value.Table.parts_width ty)) 0 in
  let rec writer (e : Ast.expr) (ty : Planp.Ptype.t) pos : rt -> unit =
    match (e.Ast.desc, ty) with
    | Ast.Tuple components, Planp.Ptype.Ttuple tys ->
        let _, writers =
          List.fold_left2
            (fun (pos, acc) c cty ->
              (pos + Option.get (Value.Table.parts_width cty), writer c cty pos :: acc))
            (pos, []) components tys
        in
        let writers = Array.of_list (List.rev writers) in
        fun rt ->
          for i = 0 to Array.length writers - 1 do
            (Array.unsafe_get writers i) rt
          done
    | Ast.Var name, _
      when (match lookup ctx name with Parts _ -> true | _ -> false) -> (
        match lookup ctx name with
        | Parts { first; reps } ->
            let n = Array.length reps in
            fun rt ->
              let ints = rt.arena.ints and from = rt.base + first in
              for j = 0 to n - 1 do
                Array.unsafe_set parts (pos + j) ints.(from + j)
              done
        | Global _ | Slot _ -> mismatch ())
    | _, Planp.Ptype.Tint ->
        let code = compile ctx Int e in
        fun rt -> parts.(pos) <- code rt
    | _, Planp.Ptype.Thost ->
        let code = compile ctx Host e in
        fun rt -> parts.(pos) <- code rt
    | _, Planp.Ptype.Tbool ->
        let code = compile ctx Bool e in
        fun rt -> parts.(pos) <- Bool.to_int (code rt)
    | _ ->
        let code = compile ctx Val e in
        fun rt -> ignore (Value.Table.pack (code rt) parts pos)
  in
  (writer key ty 0, parts)

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
          let (Rep ret) = rep_of_type (Some f.Ast.ret_type) in
          let params =
            List.map
              (fun (name, ty) ->
                param_rep ctx name ty ~unboxed:(unboxed_rep ret) f.Ast.fun_body)
              f.Ast.params
          in
          let ctx =
            List.fold_left2
              (fun ctx (param, _ty) (Rep prep) -> fst (bind ctx param prep))
              ctx f.Ast.params params
          in
          let body = compile ctx ret f.Ast.fun_body in
          Hashtbl.replace funs f.Ast.fun_name
            (Fun { body; ret; frame = Int.max 1 !(ctx.max_slot); params })
      | Ast.Dval _ | Ast.Dexception _ | Ast.Dprotostate _ | Ast.Dchannel _ -> ())
    program;
  (global_bindings, funs)

let compile_channel ~global_bindings ~funs (chan : Ast.channel) =
  let ctx = { names = global_bindings; next_slot = 0; max_slot = ref 0; funs } in
  (* The states and the packet arrive boxed; an int, host or bool state
     is unboxed into its slot once per packet. *)
  let param ctx name ty =
    let (Rep prep) = param_rep ctx name ty ~unboxed:false chan.Ast.body in
    let ctx, slot = bind ctx name prep in
    (ctx, fun arena v -> store prep arena slot (unbox prep v))
  in
  let ctx, set_ps = param ctx chan.Ast.ps_name chan.Ast.ps_type in
  let ctx, set_ss = param ctx chan.Ast.ss_name chan.Ast.ss_type in
  let ctx, set_pkt = param ctx chan.Ast.pkt_name chan.Ast.pkt_type in
  let body = compile ctx Pair chan.Ast.body in
  let frame_size = !(ctx.max_slot) in
  let arena = make_arena frame_size in
  fun world ~ps ~ss ~pkt ->
    (* Resetting [top] here also heals any inflation a previous packet's
       escaped exception left behind. *)
    arena.top <- frame_size;
    set_ps arena ps;
    set_ss arena ss;
    set_pkt arena pkt;
    body { world; arena; base = 0 }

let backend =
  {
    Backend.backend_name = "jit";
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
    List.fold_left (fun ctx param -> fst (bind ctx param Val)) ctx params
  in
  let entry = compile ctx Val expr in
  { entry; frame_size = !(ctx.max_slot); param_count = List.length params }

let run code world args =
  let size = Int.max code.frame_size code.param_count in
  let arena = make_arena size in
  arena.top <- size;
  List.iteri
    (fun i value -> if i < code.param_count then arena.data.(i) <- value)
    args;
  code.entry { world; arena; base = 0 }
