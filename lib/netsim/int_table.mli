(** Hash tables on [int] keys (addresses, ports, sequence numbers) for the
    packet path.

    [Stdlib.Hashtbl]'s generic tables hash through [caml_hash] and compare
    keys with [compare_val], two C calls per lookup. This is
    [Hashtbl.Make] over [int] with inline equality and a multiplicative
    mix. The mix matters: a table indexes by the hash's low bits, and
    host addresses such as the clients' [10.4.i.1] share their low byte,
    so the identity would put them in one bucket.

    Iteration order is the table's bucket order, as for any hash table:
    callers that print or export should sort. *)

include Hashtbl.S with type key = int
