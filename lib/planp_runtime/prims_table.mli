(** Hash-table primitives ([mkTable], [tblGet], [tblSet], [tblMem],
    [tblRemove], [tblSize], [tblClear]) over {!Value.Table}.

    Tables are mutable and keyed by equality-type values: the type checker
    rejects every [hash_table] annotation whose key type is not one
    ({!Planp.Typecheck}), and the type functions here match keys against
    the table's declared key type. Each keyed primitive registers a typed
    entry ({!Prim.typed}) that takes a flat key as its parts, which the JIT
    computes unboxed; [tblSize] returns its count unboxed. Installed by
    {!Prims.install}. *)

val install : unit -> unit
