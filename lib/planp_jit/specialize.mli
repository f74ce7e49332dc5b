(** The "JIT": run-time specialization of the interpreter with respect to a
    program.

    The paper derives its JIT by partially evaluating the PLAN-P
    interpreter (written in C) with Tempo, assembling machine-code
    templates at run time. This module is the OCaml analogue of that
    derivation: each case of [Planp_runtime.Interp.eval] is turned into a
    compile-time function that returns a *closure template*; compiling a
    program assembles the templates once, resolving

    - variable names to integer frame slots,
    - primitive names to their registered implementations,
    - global values to embedded constants, compiled exactly as literals
      are (so a global used where a boxed value is expected is the value
      itself, not a fresh box),
    - operator dispatch to specialized closures,

    so none of that work remains on the per-packet path.

    The templates are chosen by type, read off the checker's annotations
    ({!Planp.Ast.expr}): an [int] or [host] subexpression compiles to an
    [rt -> int] closure and a [bool] one to [rt -> bool], and a value is
    boxed into {!Planp_runtime.Value.t} only where it enters one (a tuple,
    a boxed primitive argument, an emission). A binding or parameter of
    those types, or a tuple of them used only by projection or as a table
    key, lives unboxed unless some use would box it again. Header readers
    and setters and the keyed table primitives run through their typed
    entries ({!Planp_runtime.Prim.typed}); a flat table key is computed
    straight into its int parts. An unannotated expression compiles to the
    boxed templates, which are always correct.

    Compiled channels execute in a per-channel slot arena that is reset
    and reused for every packet (safe because channel executions never
    nest and PLAN-P functions cannot recurse), so steady-state execution
    allocates only the values the program itself builds. Compilation time
    is what Fig. 3 of the paper measures. *)

(** Compiled code: evaluates in a frame of slot-resolved locals. *)
type code

(** [compile_program checked ~globals] compiles every channel; this is the
    unit of work timed by the Fig. 3 bench. *)
val backend : Planp_runtime.Backend.t

(** [compile_expr ~globals ~params expr] compiles a standalone expression
    with the given parameter frame layout (exposed for tests and the
    microbenchmarks). *)
val compile_expr :
  globals:(string * Planp_runtime.Value.t) list ->
  params:string list ->
  Planp.Ast.expr ->
  code

(** [run code world args] executes compiled code with [args] bound to the
    declared parameters. *)
val run :
  code -> Planp_runtime.World.t -> Planp_runtime.Value.t list ->
  Planp_runtime.Value.t
