(** Runtime values of PLAN-P programs. *)

(** A decoded IP header. [vttl] travels with the value so an ASP forwarding
    a packet preserves its remaining lifetime. *)
type ip_view = { vsrc : int; vdst : int; vttl : int }

type t =
  | Vint of int
  | Vbool of bool
  | Vstring of string
  | Vchar of char
  | Vunit
  | Vhost of int
  | Vblob of Netsim.Payload.t
  | Vip of ip_view
  | Vtcp of Netsim.Packet.tcp_header
  | Vudp of Netsim.Packet.udp_header
  | Vtuple of t array
      (** fields are never mutated after construction: treat as immutable.
          The array representation gives O(1) field projection on the
          packet fast path. *)
  | Vtable of table
      (** mutable, shared by reference through state threading *)

(** A PLAN-P hash table; see {!Table}. *)
and table

(** Raised by the PLAN-P [raise] construct; carries the exception name. *)
exception Planp_raise of string

(** Raised on internal inconsistencies (a bug if it escapes after a program
    type checked). *)
exception Runtime_error of string

(** Interned booleans: [vbool b] returns one of two shared values, so
    hot-path comparisons allocate nothing. *)
val vtrue : t

val vfalse : t
val vbool : bool -> t

(** [equal a b] is structural equality; hash tables compare by identity.
    The type checker restricts [=] to equality types, where this agrees
    with mathematical equality. *)
val equal : t -> t -> bool

(** [compare_values a b] orders ints, chars and strings; other types raise
    {!Runtime_error} (excluded by the type checker). *)
val compare_values : t -> t -> int

(** [default_of ty] is the zero value used when no initializer is given.
    @raise Runtime_error for non-defaultable types. *)
val default_of : Planp.Ptype.t -> t

(** [type_error ~expected value] raises a descriptive {!Runtime_error}. *)
val type_error : expected:string -> t -> 'a

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Checked projections} — raise {!Runtime_error} on the wrong shape. *)

val as_int : t -> int
val as_bool : t -> bool
val as_string : t -> string
val as_char : t -> char
val as_host : t -> int
val as_blob : t -> Netsim.Payload.t
val as_ip : t -> ip_view
val as_tcp : t -> Netsim.Packet.tcp_header
val as_udp : t -> Netsim.Packet.udp_header
val as_tuple : t -> t array
val as_table : t -> table

(** PLAN-P hash tables, laid out by their key type.

    Every key of one table has the table's key type, an equality type, so
    the first insert fixes the layout for good:

    - a key type built from [int], [host], [bool], [char] and [unit] by
      tuples packs into a fixed number of ints, its {e parts} (an [int] or
      [host] is itself, a [bool] 0 or 1, a [char] its code, [unit] 0, a
      tuple its components' parts in order). Such a table is a flat
      open-addressing table over int arrays, hashed in OCaml: a lookup
      touches no per-entry heap block, and a removed slot is reused by a
      later insert;
    - any other key type (one with a [string] in it) is kept in a chained
      table whose hash follows the key's structure.

    The interpreter and the VM reach a table through [t] keys; the JIT
    passes a flat key as its parts, computed unboxed. Both reach the same
    entries. PLAN-P has no table iteration, so the order of entries is
    never observable. *)
module Table : sig
  (** [create hint] is an empty table; [hint] (clamped to [8 .. 65536])
      sizes its first allocation. *)
  val create : int -> table

  val length : table -> int

  (** [clear t] empties [t] and returns it to its first size. *)
  val clear : table -> unit

  (** {2 Keys as values} *)

  val get : table -> t -> default:t -> t
  val mem : table -> t -> bool

  (** [set t key v] binds [key]; storing a value equal to the bound int,
      host or bool is skipped (values are immutable). *)
  val set : table -> t -> t -> unit

  val remove : table -> t -> unit

  (** {2 Keys as parts}

      [parts] holds exactly the key's parts. The table must be flat with
      that many parts, or still empty; otherwise these raise
      {!Runtime_error}. *)

  val get_parts : table -> int array -> default:t -> t
  val mem_parts : table -> int array -> bool
  val set_parts : table -> int array -> t -> unit
  val remove_parts : table -> int array -> unit

  (** [pack key parts pos] writes the parts of a flat [key] into [parts]
      from [pos] and returns the position after them. *)
  val pack : t -> int array -> int -> int

  (** [parts_width ty] is the number of parts of a key of type [ty], or
      [None] when [ty] is kept in the chained layout. *)
  val parts_width : Planp.Ptype.t -> int option
end
