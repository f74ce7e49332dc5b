(** Execution backends.

    A backend turns a type-checked program into per-channel executable
    functions. Three implementations exist:

    - {!Interp.backend} — the portable tree-walking interpreter;
    - [Planp_jit.Specialize.backend] — the "JIT": the interpreter
      specialized against the program, producing closures;
    - [Planp_jit.Bytecomp.backend] — a stack bytecode + VM, the mobile-code
      baseline the paper compares against (Java/Harissa).

    All three execute primitives through the same {!Prim} registry, so
    language extensions (paper §2.3) automatically reach every backend. *)

(** Executes one channel invocation: returns the new (protocol, channel)
    states. May raise {!Value.Planp_raise} (program-level exception escaping)
    or {!Value.Runtime_error} (bug). *)
type chan_exec =
  World.t -> ps:Value.t -> ss:Value.t -> pkt:Value.t -> Value.t * Value.t

type t = {
  backend_name : string;
  compile :
    Planp.Typecheck.checked ->
    globals:(string * Value.t) list ->
    (Planp.Ast.channel * chan_exec) list;
      (** one entry per channel declaration, in source order *)
}
