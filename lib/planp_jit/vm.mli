(** The bytecode virtual machine.

    A threaded loop over {!Bytecode.instr} with locals and operand stack
    living in one pooled, growable arena that is reused across packets;
    function calls carve their frame out of the same arena, so steady-state
    execution does not allocate per call. Deliberately *not* specialized:
    it is the baseline the JIT is measured against. *)

(** [call unit_ ~fn world args] runs function [fn] of the unit with [args]
    in its parameter slots and returns the value left on the stack. The
    argument array is copied at entry; the caller keeps ownership.
    @raise Value.Planp_raise on uncaught PLAN-P exceptions.
    @raise Value.Runtime_error on stack/code inconsistencies (compiler
    bugs). *)
val call :
  Bytecode.unit_ ->
  fn:int ->
  Planp_runtime.World.t ->
  Planp_runtime.Value.t array ->
  Planp_runtime.Value.t

(** Domain-local profiling cells: instructions dispatched and primitives
    invoked by the calling domain since it started. Domain-local (not
    process-wide refs) so accounting is race-free under
    [Netsim.Par_engine --domains k]; the bytecode backend reads
    per-packet deltas of these into [planp.vm.instrs] /
    [planp.vm.prim_calls]. [profile () = (instrs, prim calls)]. *)
val profile : unit -> int * int
