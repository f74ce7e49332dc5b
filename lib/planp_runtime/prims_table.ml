module Ptype = Planp.Ptype

let table_key_value = function
  | Ptype.Thash (key, value) -> Some (key, value)
  | _ -> None

(* tblGet(table, key, default) : value *)
let get_type_fn = function
  | [ table_ty; key_ty; default_ty ] -> (
      match table_key_value table_ty with
      | Some (key, value) ->
          if not (Ptype.equal key key_ty) then
            Error
              (Printf.sprintf "key type %s does not match table key %s"
                 (Ptype.to_string key_ty) (Ptype.to_string key))
          else if not (Ptype.equal value default_ty) then
            Error
              (Printf.sprintf "default type %s does not match table value %s"
                 (Ptype.to_string default_ty)
                 (Ptype.to_string value))
          else Ok value
      | None ->
          Error (Printf.sprintf "not a hash table: %s" (Ptype.to_string table_ty)))
  | args -> Error (Printf.sprintf "expected 3 arguments, got %d" (List.length args))

(* tblSet(table, key, value) : unit *)
let set_type_fn = function
  | [ table_ty; key_ty; value_ty ] -> (
      match table_key_value table_ty with
      | Some (key, value) ->
          if not (Ptype.equal key key_ty) then
            Error
              (Printf.sprintf "key type %s does not match table key %s"
                 (Ptype.to_string key_ty) (Ptype.to_string key))
          else if not (Ptype.equal value value_ty) then
            Error
              (Printf.sprintf "value type %s does not match table value %s"
                 (Ptype.to_string value_ty)
                 (Ptype.to_string value))
          else Ok Ptype.Tunit
      | None ->
          Error (Printf.sprintf "not a hash table: %s" (Ptype.to_string table_ty)))
  | args -> Error (Printf.sprintf "expected 3 arguments, got %d" (List.length args))

(* tblMem(table, key) : bool / tblRemove(table, key) : unit *)
let key_only_type_fn result = function
  | [ table_ty; key_ty ] -> (
      match table_key_value table_ty with
      | Some (key, _) ->
          if Ptype.equal key key_ty then Ok result
          else
            Error
              (Printf.sprintf "key type %s does not match table key %s"
                 (Ptype.to_string key_ty) (Ptype.to_string key))
      | None ->
          Error (Printf.sprintf "not a hash table: %s" (Ptype.to_string table_ty)))
  | args -> Error (Printf.sprintf "expected 2 arguments, got %d" (List.length args))

let table_only_type_fn result = function
  | [ table_ty ] -> (
      match table_key_value table_ty with
      | Some _ -> Ok result
      | None ->
          Error (Printf.sprintf "not a hash table: %s" (Ptype.to_string table_ty)))
  | args -> Error (Printf.sprintf "expected 1 argument, got %d" (List.length args))

let mk_type_fn = function
  | [ Ptype.Tint ] -> Ok Ptype.Thash_any
  | [ other ] -> Error (Printf.sprintf "expected int size, got %s" (Ptype.to_string other))
  | args -> Error (Printf.sprintf "expected 1 argument, got %d" (List.length args))

let table_prim prim_name type_fn typed impl =
  { Prim.prim_name; type_fn; impl = (fun _world args -> impl args); pure = true; typed }

let install () =
  let module T = Value.Table in
  List.iter Prim.register
    [
      table_prim "mkTable" mk_type_fn Prim.Boxed (fun args ->
          Prim.check_arity 1 args;
          Value.Vtable (T.create (Value.as_int args.(0))));
      table_prim "tblGet" get_type_fn
        (Prim.Key_get
           (fun table parts default ->
             T.get_parts (Value.as_table table) parts ~default))
        (fun args ->
          Prim.check_arity 3 args;
          T.get (Value.as_table args.(0)) args.(1) ~default:args.(2));
      table_prim "tblSet" set_type_fn
        (Prim.Key_set
           (fun table parts value ->
             T.set_parts (Value.as_table table) parts value))
        (fun args ->
          Prim.check_arity 3 args;
          T.set (Value.as_table args.(0)) args.(1) args.(2);
          Value.Vunit);
      table_prim "tblMem" (key_only_type_fn Ptype.Tbool)
        (Prim.Key_mem (fun table parts -> T.mem_parts (Value.as_table table) parts))
        (fun args ->
          Prim.check_arity 2 args;
          Value.vbool (T.mem (Value.as_table args.(0)) args.(1)));
      table_prim "tblRemove" (key_only_type_fn Ptype.Tunit)
        (Prim.Key_remove
           (fun table parts -> T.remove_parts (Value.as_table table) parts))
        (fun args ->
          Prim.check_arity 2 args;
          T.remove (Value.as_table args.(0)) args.(1);
          Value.Vunit);
      table_prim "tblSize" (table_only_type_fn Ptype.Tint)
        (Prim.Read_int (fun table -> T.length (Value.as_table table)))
        (fun args ->
          Prim.check_arity 1 args;
          Value.Vint (T.length (Value.as_table args.(0))));
      table_prim "tblClear" (table_only_type_fn Ptype.Tunit) Prim.Boxed (fun args ->
          Prim.check_arity 1 args;
          T.clear (Value.as_table args.(0));
          Value.Vunit);
    ]
