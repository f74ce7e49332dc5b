(** The PLAN-P tree-walking interpreter — the reference semantics.

    The JIT of the paper is *derived from* this interpreter by
    specialization; [Planp_jit.Specialize] mirrors this module case by case,
    moving the AST traversal to compile time. When changing evaluation
    rules here, change them there. *)

module Env : Map.S with type key = string

(** Evaluation context: the world, the program's functions, and the global
    value environment. *)
type ctx

(** [eval ctx env expr] evaluates under local bindings [env] (on top of the
    context's globals).
    @raise Value.Planp_raise on uncaught PLAN-P exceptions.
    @raise Value.Runtime_error on internal errors. *)
val eval : ctx -> Value.t Env.t -> Planp.Ast.expr -> Value.t

(** [eval_const ~world ~globals expr] evaluates an initializer (no local
    bindings, no functions). *)
val eval_const :
  world:World.t -> globals:(string * Value.t) list -> Planp.Ast.expr -> Value.t

(** [eval_globals ~world program] evaluates the program's [val]
    declarations once, in declaration order, each initializer seeing the
    globals before it: the [~globals] every backend compiles against. *)
val eval_globals : world:World.t -> Planp.Ast.program -> (string * Value.t) list

(** The interpreter as a backend (re-walks the AST on every packet). *)
val backend : Backend.t

(** Domain-local profiling cells: AST nodes evaluated and primitives
    invoked by the *calling domain* since it started, by any caller of
    [eval]. Kept domain-local (not process-wide refs) so per-packet
    accounting stays race-free under [Netsim.Par_engine --domains k];
    the backend's per-packet wrapper reads deltas of these into the
    [planp.interp.eval_steps] / [planp.interp.prim_calls] counters.
    [profile () = (AST nodes, primitive calls)]. *)
val profile : unit -> int * int
