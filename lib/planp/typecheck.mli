(** The PLAN-P type checker.

    Beyond ordinary checking, it enforces the DSL restrictions that make the
    safety analyses of the paper possible:

    - functions are non-recursive (a function may only call functions
      declared before it), hence local termination by construction;
    - channel packet types are tuples headed by [ip];
    - overloads of one channel name share the protocol-state type and have
      pairwise distinct packet types;
    - [OnRemote]/[OnNeighbor] targets exist, and the packet expression
      matches one of the target's declared packet types (any packet type for
      the distinguished [network] channel, whose packets travel untagged);
    - equality is restricted to equality types, and so are the key types
      of every [hash_table] annotation; sequencing discards only [unit].

    Checking also records the type of every expression in its node
    ({!Ast.expr.ty}), so the passes after it need not infer types again:
    the JIT chooses its templates by them.

    If no [protostate] declaration is present, all channels must declare a
    protocol-state parameter of a defaultable type (not a hash table). *)

(** Exception names every program may raise and handle without declaring
    them: the built-in [DivByZero], [OutOfBounds], [BadChar], [BadAudio],
    [BadImage]. *)
val builtin_exceptions : string list

type error = { message : string; loc : Loc.t }

type checked = {
  program : Ast.program;
  proto_type : Ptype.t;  (** [Tunit] when there are no channels *)
  proto_init : Ast.expr option;
  globals : (string * Ptype.t) list;  (** top-level vals, declaration order *)
  exceptions : string list;
}

(** [check ~prims program] checks [program] and annotates each of its
    expressions with its type (see {!Ast.expr}). *)
val check : prims:Prim_sig.lookup -> Ast.program -> (checked, error) result

(** [check_expr ~prims ~vals e] checks and annotates a standalone
    expression whose free variables have the types [vals]; only the
    built-in exceptions are in scope, and no functions or channels. The
    result is [None] for an expression that raises on every path. *)
val check_expr :
  prims:Prim_sig.lookup ->
  vals:(string * Ptype.t) list ->
  Ast.expr ->
  (Ptype.t option, error) result

(** [check_exn ~prims program] raises [Failure] with a rendered message. *)
val check_exn : prims:Prim_sig.lookup -> Ast.program -> checked

val pp_error : Format.formatter -> error -> unit
