(** The primitive registry.

    As in the paper (§2.3), "extending the interpreter with a new primitive
    involves defining two C functions. One function performs the calculation
    of the primitive, while the second computes the return type of the
    primitive given the types of its arguments." Here the two functions are
    [impl] and [type_fn]; every backend (interpreter, JIT, bytecode VM)
    executes primitives through this one registry, so a registration extends
    all three at once. *)

(** The argument array is a scratch buffer owned by the calling backend and
    reused across calls: an implementation reads its arguments in place
    ([args.(i)]), must not retain the array (copy if it needs the values
    past its own return), and should read its arguments before performing
    world effects. *)
type impl = World.t -> Value.t array -> Value.t

type prim = {
  prim_name : string;
  type_fn : Planp.Prim_sig.type_fn;
  impl : impl;
  pure : bool;
      (** pure primitives may run outside a packet context (global values) *)
}

(** [check_arity n args] raises [Value.Runtime_error] unless [args] holds
    exactly [n] values; after it, [args.(0)] .. [args.(n - 1)] are the
    arguments. It allocates nothing on success. *)
val check_arity : int -> Value.t array -> unit

(** [pure name expected result impl] is a pure primitive with the fixed
    signature [expected -> result]. Each call checks the argument count
    against [expected] once ({!check_arity}), then runs [impl]. *)
val pure :
  string ->
  Planp.Ptype.t list ->
  Planp.Ptype.t ->
  (Value.t array -> Value.t) ->
  prim

(** [impure] is {!pure} for a primitive that observes or acts on its
    world. *)
val impure : string -> Planp.Ptype.t list -> Planp.Ptype.t -> impl -> prim

(** [register prim] adds or replaces a primitive. *)
val register : prim -> unit

val find : string -> prim option
val find_exn : string -> prim

(** [type_lookup] feeds {!Planp.Typecheck.check}. *)
val type_lookup : Planp.Prim_sig.lookup

(** [names ()] lists registered primitives, sorted. *)
val names : unit -> string list

val count : unit -> int
