(** Closure-free event scheduler: calendar-queue front end, overflow heap.

    Events pop in strictly increasing [(time, seq)] order, where [seq] is
    a global insertion counter (FIFO at equal times).  The structure
    stores events in pooled parallel arrays (unboxed float times, int
    seqs/links, a payload pointer array) recycled through a free list —
    steady-state [add]/[pop] allocates no minor words, and the dominant
    near-future inserts are O(1) via the calendar wheel.  Events at or past
    the wheel's horizon overflow into a binary heap and are swept back into
    the wheel when it rotates; the bucket width adapts to the observed
    inter-event gap at each rotation.

    Only the live prefix of the pool is ever meaningful: free slots keep
    stale times and a [dummy] payload, so neither [pop] nor [clear] touches
    capacity beyond what was used. *)

type fcell = { mutable v : float }
(** A single unboxed float cell.  All-float records are flat in OCaml, so
    writing [c.v <- t] never boxes — callers pass one of these to receive
    pop/peek times without allocating. *)

type 'a t

(** [create ~dummy ()] is an empty scheduler. [dummy] fills unused payload
    slots (it is never returned). [nbuckets] is the initial wheel size
    (default 256; grows at rotations, capped at 65536). *)
val create : ?nbuckets:int -> dummy:'a -> unit -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool

(** [fresh_seq t] reserves the next global sequence number.  Use it to
    stamp an event whose scheduling is deferred (a link's FIFO ring) so it
    keeps the pop position it would have had if scheduled immediately. *)
val fresh_seq : 'a t -> int

(** [add t ~time v] schedules [v] with a fresh sequence number. *)
val add : 'a t -> time:float -> 'a -> unit

(** [add_stamped t ~time ~seq v] schedules with a caller-reserved stamp.
    [seq] must come from {!fresh_seq} of the same scheduler. *)
val add_stamped : 'a t -> time:float -> seq:int -> 'a -> unit

(** [peek_time t ~into] writes the earliest due time into [into] and
    returns [true]; returns [false] (leaving [into] alone) when empty. *)
val peek_time : 'a t -> into:fcell -> bool

(** [pop t ~into] removes the earliest event, writes its time into [into]
    and returns its payload.
    @raise Invalid_argument when empty (check {!is_empty} first). *)
val pop : 'a t -> into:fcell -> 'a

(** Drops every event and recycles the slots (live prefix only). *)
val clear : 'a t -> unit

(** {2 Introspection} — for tests and gauges. *)

val wheel_length : 'a t -> int
(** Events currently in the calendar wheel. *)

val overflow_length : 'a t -> int
(** Events currently in the overflow heap. *)

val bucket_count : 'a t -> int
val bucket_width : 'a t -> float
