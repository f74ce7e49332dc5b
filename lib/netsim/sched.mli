(** Closure-free event scheduler: a rolling calendar queue in front of an
    overflow heap.

    Events pop in strictly increasing [(time, seq)] order, where [seq] is
    a global insertion counter (FIFO at equal times).  The structure
    stores events in pooled parallel arrays (unboxed float times, int
    seqs/links, a payload pointer array) recycled through a free list —
    steady-state [add]/[pop] allocates no minor words.

    The wheel covers [nbuckets] consecutive bucket widths starting at the
    current bucket, and rolls forward one bucket each time the current one
    is empty; an insert within that window is a sorted insert into its
    bucket (O(1) when it lands at either end), and one past it waits in
    the heap until the window reaches it.  The geometry is re-fitted from
    what the queue sees, with no option to tune:
    - a sorted insert that walks far, once such walks add up to more than
      the queue's size plus its bucket count, narrows the buckets (towards
      4x the mean gap between pops, at least halving) and grows their
      count to twice the queue's size;
    - once more than an eighth of as many inserts went past the window,
      the window widens (more buckets, up to twice the queue's size, else
      twice the width).
    A re-fit costs O(buckets + size) and so follows at least as much
    wasted work.  When the wheel runs empty, [pop] re-anchors it at the
    heap's earliest event; an [add] never moves it.  {!walk_steps} and
    {!overflow_inserts} count the work those rules bound.

    Only the live prefix of the pool is ever meaningful: free slots keep
    stale times and a [dummy] payload, so neither [pop] nor [clear] touches
    capacity beyond what was used. *)

type fcell = { mutable v : float }
(** A single unboxed float cell.  All-float records are flat in OCaml, so
    writing [c.v <- t] never boxes — callers pass one of these to receive
    pop/peek times without allocating. *)

type 'a t

(** [create ~dummy ()] is an empty scheduler. [dummy] fills unused payload
    slots (it is never returned). [nbuckets] is the initial wheel size,
    rounded up to a power of two (default 256; grows at re-fits, capped at
    65536). *)
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

val walk_steps : 'a t -> int
(** Entries that sorted inserts have walked past, since creation. *)

val overflow_inserts : 'a t -> int
(** Inserts that went to the overflow heap because they fell past the
    wheel's window, since creation. *)
