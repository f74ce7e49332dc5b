type impl = World.t -> Value.t array -> Value.t

type typed =
  | Boxed
  | Read_int of (Value.t -> int)
  | Read_bool of (Value.t -> bool)
  | With_int of (Value.t -> int -> Value.t)
  | Key_get of (Value.t -> int array -> Value.t -> Value.t)
  | Key_mem of (Value.t -> int array -> bool)
  | Key_set of (Value.t -> int array -> Value.t -> unit)
  | Key_remove of (Value.t -> int array -> unit)

type prim = {
  prim_name : string;
  type_fn : Planp.Prim_sig.type_fn;
  impl : impl;
  pure : bool;
  typed : typed;
}

let check_arity n args =
  if Array.length args <> n then
    raise
      (Value.Runtime_error
         (Printf.sprintf "expected %d argument%s, got %d" n
            (if n = 1 then "" else "s")
            (Array.length args)))

let pure prim_name expected result impl =
  let arity = List.length expected in
  {
    prim_name;
    type_fn = Planp.Prim_sig.fixed expected result;
    impl =
      (fun _world args ->
        check_arity arity args;
        impl args);
    pure = true;
    typed = Boxed;
  }

let impure prim_name expected result impl =
  let arity = List.length expected in
  {
    prim_name;
    type_fn = Planp.Prim_sig.fixed expected result;
    impl =
      (fun world args ->
        check_arity arity args;
        impl world args);
    pure = false;
    typed = Boxed;
  }

let with_typed typed prim = { prim with typed }

let registry : (string, prim) Hashtbl.t = Hashtbl.create 64
let register prim = Hashtbl.replace registry prim.prim_name prim
let find name = Hashtbl.find_opt registry name

let find_exn name =
  match find name with
  | Some prim -> prim
  | None ->
      raise
        (Value.Runtime_error (Printf.sprintf "unregistered primitive %s" name))

let type_lookup name =
  Option.map (fun prim -> prim.type_fn) (Hashtbl.find_opt registry name)

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) registry []
  |> List.sort String.compare

let count () = Hashtbl.length registry
