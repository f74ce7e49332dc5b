type impl = World.t -> Value.t array -> Value.t

type prim = {
  prim_name : string;
  type_fn : Planp.Prim_sig.type_fn;
  impl : impl;
  pure : bool;
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
  }

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
