(** The primitive registry.

    As in the paper (§2.3), "extending the interpreter with a new primitive
    involves defining two C functions. One function performs the calculation
    of the primitive, while the second computes the return type of the
    primitive given the types of its arguments." Here the two functions are
    [impl] and [type_fn]; every backend (interpreter, JIT, bytecode VM)
    executes primitives through this one registry, so a registration extends
    all three at once. A primitive may also register a typed entry point
    ({!typed}) next to [impl]: the same function with unboxed ints, hosts
    and bools, which the JIT's typed templates call directly. *)

(** The argument array is a scratch buffer owned by the calling backend and
    reused across calls: an implementation reads its arguments in place
    ([args.(i)]), must not retain the array (copy if it needs the values
    past its own return), and should read its arguments before performing
    world effects. *)
type impl = World.t -> Value.t array -> Value.t

(** A typed entry point: the same primitive with its [int], [host] and
    [bool] arguments and results unboxed, for the JIT's typed templates
    ([host] travels as its int). A table key of a flat key type (see
    {!Value.Table}) is passed as its parts, in an array the caller owns
    and may reuse. Each entry must agree with [impl] on every argument. *)
type typed =
  | Boxed  (** no typed entry: callers use [impl] *)
  | Read_int of (Value.t -> int)  (** one boxed argument, [int]/[host] result *)
  | Read_bool of (Value.t -> bool)  (** one boxed argument, [bool] result *)
  | With_int of (Value.t -> int -> Value.t)
      (** a boxed and an [int]/[host] argument, boxed result (header setters) *)
  | Key_get of (Value.t -> int array -> Value.t -> Value.t)
      (** table, key parts, default *)
  | Key_mem of (Value.t -> int array -> bool)  (** table, key parts *)
  | Key_set of (Value.t -> int array -> Value.t -> unit)
      (** table, key parts, value *)
  | Key_remove of (Value.t -> int array -> unit)  (** table, key parts *)

type prim = {
  prim_name : string;
  type_fn : Planp.Prim_sig.type_fn;
  impl : impl;
  pure : bool;
      (** pure primitives may run outside a packet context (global values) *)
  typed : typed;
}

(** [check_arity n args] raises [Value.Runtime_error] unless [args] holds
    exactly [n] values; after it, [args.(0)] .. [args.(n - 1)] are the
    arguments. It allocates nothing on success. *)
val check_arity : int -> Value.t array -> unit

(** [pure name expected result impl] is a pure primitive with the fixed
    signature [expected -> result] and no typed entry. Each call checks the
    argument count against [expected] once ({!check_arity}), then runs
    [impl]. *)
val pure :
  string ->
  Planp.Ptype.t list ->
  Planp.Ptype.t ->
  (Value.t array -> Value.t) ->
  prim

(** [impure] is {!pure} for a primitive that observes or acts on its
    world. *)
val impure : string -> Planp.Ptype.t list -> Planp.Ptype.t -> impl -> prim

(** [with_typed typed prim] is [prim] with the typed entry [typed]. *)
val with_typed : typed -> prim -> prim

(** [register prim] adds or replaces a primitive. *)
val register : prim -> unit

val find : string -> prim option
val find_exn : string -> prim

(** [type_lookup] feeds {!Planp.Typecheck.check}. *)
val type_lookup : Planp.Prim_sig.lookup

(** [names ()] lists registered primitives, sorted. *)
val names : unit -> string list

val count : unit -> int
