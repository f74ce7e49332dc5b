(** Compile-time constant folding — the static half of partial evaluation
    (the paper's Tempo performed both compile-time and run-time
    specialization; {!Specialize} is the run-time half, this pass the
    compile-time half).

    With the program's global constants as static input, [program] folds:

    - arithmetic/comparison/boolean/string operators over literals
      (faithfully raising... no: a literal division by zero is left in
      place so the run-time exception semantics are preserved);
    - [if] over a literal condition (pruning the dead branch);
    - short-circuit operators with a literal left side;
    - projections of literal tuples;
    - pure primitives over literal arguments ([itos], [min], [charPos], ...);
    - [let]-bound literals (substituted when the binding becomes literal).

    Folding preserves semantics for verified programs; the [jit] backend
    applies it before specialization, and the ablation benchmark
    quantifies what it buys. A rewritten node keeps the type the checker
    wrote into the node it replaces (a folded literal gets its literal's
    type), so the specializer reads types off the folded program without
    checking it again. *)

(** [expr ~globals e] folds one expression. [globals] supplies literal
    values for free variables. *)
val expr :
  globals:(string * Planp_runtime.Value.t) list ->
  Planp.Ast.expr ->
  Planp.Ast.expr

(** [program checked ~globals] folds every function body, initializer and
    channel body. *)
val program :
  Planp.Typecheck.checked ->
  globals:(string * Planp_runtime.Value.t) list ->
  Planp.Typecheck.checked

(** [literal_of e] is the value of a literal expression, or [None]. *)
val literal_of : Planp.Ast.expr -> Planp_runtime.Value.t option

(** [count_nodes e] — AST size, for measuring how much folding removed. *)
val count_nodes : Planp.Ast.expr -> int
