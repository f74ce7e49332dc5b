(** The combined program verifier the runtime consults before accepting a
    downloaded program (paper §2.1: "when programs are downloaded into the
    network layer, programs should be analyzed and rejected if they cannot
    be shown to terminate or to exhibit non-exponential packet
    duplication"). *)

type report = {
  local_termination : Local_termination.report;
  global_termination : Global_termination.report;
  delivery : Delivery.report;
  duplication : Duplication.report;
}

val verify : Planp.Ast.program -> report

(** [passes report] — all four properties proved. *)
val passes : report -> bool

(** [first_failure report] is a human-readable reason, if any check failed. *)
val first_failure : report -> string option

(** [gate ?authenticated ()] is a validation hook for
    [Planp_runtime.Runtime.install]: rejects programs failing verification
    unless [authenticated] (the paper's escape hatch for privileged users
    downloading legitimate-but-unprovable protocols such as multicast). *)
val gate :
  ?authenticated:bool ->
  unit ->
  Planp.Typecheck.checked ->
  (unit, string) result

val pp : Format.formatter -> report -> unit
