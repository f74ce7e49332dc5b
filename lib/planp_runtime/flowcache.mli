(** A stub kept for one caller: [bench_e2e/e2e.ml] calls {!set_enabled}
    before each run to pair runs with a flow-keyed decision cache on and
    off. There is no such cache (every ASP packet runs through its
    backend), so both runs of a pair execute the same code. Delete this
    module when the benchmark drops that call. *)

(** [set_enabled _] does nothing. *)
val set_enabled : bool -> unit
