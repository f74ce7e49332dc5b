module Ptype = Planp.Ptype

(* One coarse version stamp over every resident table in the process:
   any write bumps it, and the flow cache drops version-stamped entries
   whose stamp is stale. Coarse is sound — a spurious bump only costs a
   cache miss — and atomic so partitioned engines on several domains
   can share it. *)
let generation_cell = Atomic.make 0
let generation () = Atomic.get generation_cell
let bump_generation () = Atomic.incr generation_cell

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

let install () =
  List.iter Prim.register
    [
      {
        Prim.prim_name = "mkTable";
        type_fn = mk_type_fn;
        impl =
          (fun _world args ->
            Prim.check_arity 1 args;
            Value.Vtable (Hashtbl.create (Int.max 1 (Value.as_int args.(0)))));
        pure = true;
      };
      {
        Prim.prim_name = "tblGet";
        type_fn = get_type_fn;
        impl =
          (fun _world args ->
            Prim.check_arity 3 args;
            match Hashtbl.find_opt (Value.as_table args.(0)) args.(1) with
            | Some value -> value
            | None -> args.(2));
        pure = true;
      };
      {
        Prim.prim_name = "tblSet";
        type_fn = set_type_fn;
        impl =
          (fun _world args ->
            Prim.check_arity 3 args;
            Hashtbl.replace (Value.as_table args.(0)) args.(1) args.(2);
            bump_generation ();
            Value.Vunit);
        pure = true;
      };
      {
        Prim.prim_name = "tblMem";
        type_fn = key_only_type_fn Ptype.Tbool;
        impl =
          (fun _world args ->
            Prim.check_arity 2 args;
            Value.vbool (Hashtbl.mem (Value.as_table args.(0)) args.(1)));
        pure = true;
      };
      {
        Prim.prim_name = "tblRemove";
        type_fn = key_only_type_fn Ptype.Tunit;
        impl =
          (fun _world args ->
            Prim.check_arity 2 args;
            Hashtbl.remove (Value.as_table args.(0)) args.(1);
            bump_generation ();
            Value.Vunit);
        pure = true;
      };
      {
        Prim.prim_name = "tblSize";
        type_fn = table_only_type_fn Ptype.Tint;
        impl =
          (fun _world args ->
            Prim.check_arity 1 args;
            Value.Vint (Hashtbl.length (Value.as_table args.(0))));
        pure = true;
      };
      {
        Prim.prim_name = "tblClear";
        type_fn = table_only_type_fn Ptype.Tunit;
        impl =
          (fun _world args ->
            Prim.check_arity 1 args;
            Hashtbl.reset (Value.as_table args.(0));
            bump_generation ();
            Value.Vunit);
        pure = true;
      };
    ]
