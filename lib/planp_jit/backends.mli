(** Backend selection and code-generation timing. *)

(** [all ()] is [interp; jit; bytecode]. *)
val all : unit -> Planp_runtime.Backend.t list

val interp : Planp_runtime.Backend.t

(** The JIT: {!Specialize.backend}, the interpreter specialized to the
    program. Globals compile exactly as literals do, as embedded
    constants. *)
val jit : Planp_runtime.Backend.t

val bytecode : Planp_runtime.Backend.t
val by_name : string -> Planp_runtime.Backend.t option

(** [codegen_time_ms backend checked ~globals ~repeats] compiles the program
    [repeats] times and returns the mean wall-clock milliseconds per
    compilation — the measurement of the paper's Fig. 3. *)
val codegen_time_ms :
  Planp_runtime.Backend.t ->
  Planp.Typecheck.checked ->
  globals:(string * Planp_runtime.Value.t) list ->
  repeats:int ->
  float
