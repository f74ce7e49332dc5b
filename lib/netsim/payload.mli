(** Packet payloads: immutable byte sequences with bounds-checked big-endian
    accessors and cursor-style readers/writers.

    Application data (audio frames, HTTP requests, MPEG frames) is serialized
    into payloads so that PLAN-P blob primitives operate on real bytes, as in
    the paper's kernel implementation.

    Representation: a payload is a [(base, off, len)] view over a shared
    string, or a lazily-flattened concatenation of such views.  [sub] and
    [concat] are O(1) and never copy bytes.  A concatenation is read in
    place where it can be: {!get_u8}, {!get_u16} and {!get_u32} read its
    first part when the read lies inside that part (a frame built as a
    header part plus a body read its header without flattening), and
    {!window} reads whichever single part holds a range.  Any other byte
    access materializes the concatenation once (memoized in place).  Use
    {!compact} at the few sites that need the storage trimmed to exactly
    the payload's own bytes. *)

type t

val empty : t
val of_string : string -> t
val to_string : t -> string
val of_bytes : bytes -> t
val length : t -> int

(** [get_u8 payload off] reads one byte. On a concatenation whose first
    part holds the bytes read, it reads that part in place (recursively,
    through nested first parts); otherwise it forces the concatenation.
    Allocates nothing on a contiguous payload.
    @raise Invalid_argument when out of bounds (all accessors). *)
val get_u8 : t -> int -> int

(** Big-endian; the first-part rule of {!get_u8} applies to the whole
    read. *)
val get_u16 : t -> int -> int

val get_u32 : t -> int -> int

(** [window payload ~pos ~len] is [(base, off)]: a string holding the
    payload's bytes [pos .. pos + len - 1] at [base.[off] ..
    base.[off + len - 1]]. On a concatenation it is the string of the one
    part (at any depth) that holds the whole range, so nothing is copied;
    only a range across two parts forces, and then only the smallest
    concatenation that holds it. The string is shared with the payload
    and its views; read it, never mutate it. For kernels that scan a
    range with [String]'s own accessors.
    @raise Invalid_argument when the range is out of bounds. *)
val window : t -> pos:int -> len:int -> string * int

(** [sub payload ~pos ~len] extracts a slice — a view sharing the
    parent's bytes, not a copy. On a concatenation it is a view of the one
    part that holds the range, found as {!window} finds it, so only a
    slice across two parts forces, and then only the smallest
    concatenation that holds it. *)
val sub : t -> pos:int -> len:int -> t

(** [concat parts] chains payloads without copying; the bytes are
    materialized (once) on first byte access. *)
val concat : t list -> t

val equal : t -> t -> bool

(** [compact payload] trims the backing storage to exactly the payload's
    own bytes (copying them if the payload was a view into something
    larger), so long-lived payloads do not retain large parent buffers.
    Returns the same payload, updated in place. *)
val compact : t -> t

(** [fill len byte] is a payload of [len] copies of [byte]; used to model
    opaque data of a given size. *)
val fill : int -> int -> t

val pp : Format.formatter -> t -> unit

(** Sequential writer. *)
module Writer : sig
  type w

  val create : unit -> w
  val u8 : w -> int -> unit
  val u16 : w -> int -> unit
  val u32 : w -> int -> unit
  val string : w -> string -> unit

  (** [raw w payload] appends an existing payload. *)
  val raw : w -> t -> unit

  val finish : w -> t
end

(** Sequential reader. *)
module Reader : sig
  type r

  val create : t -> r
  val u8 : r -> int
  val u16 : r -> int
  val u32 : r -> int

  (** [string r len] reads [len] raw bytes. *)
  val string : r -> int -> string

  (** [remaining r] is the number of unread bytes. *)
  val remaining : r -> int

  (** [rest r] reads all remaining bytes as a payload. *)
  val rest : r -> t
end
