(** Discrete-event simulation engine.

    The engine owns the simulated clock and an event queue. Events are a
    typed variant: plain timer thunks, plus preallocated FIFO {e delivery}
    and {e broadcast} rings that links and segments push packets into —
    one outstanding queue entry per ring, re-armed from the ring head, so
    steady-state packet delivery schedules without allocating. All netsim
    components (links, nodes, applications) of one partition share one
    engine.

    Ordering is identical to scheduling every packet individually: each
    ring push reserves a global sequence number at push time, and the
    ring's queue entry always carries the head packet's stamped
    [(time, seq)]. *)

type t

(** [create ()] is a fresh engine with the clock at [0.0].
    [~register_gauges:false] skips registering the process-wide
    [netsim.engine.*] callback gauges — partition sub-engines use it so
    the parallel driver ({!Par_engine}) can own those names and publish
    reductions over every partition instead. *)
val create : ?register_gauges:bool -> unit -> t

(** [now engine] is the current simulated time in seconds. *)
val now : t -> float

(** [schedule engine ~at thunk] runs [thunk] when the clock reaches [at].
    @raise Invalid_argument if [at] is in the past or NaN. *)
val schedule : t -> at:float -> (unit -> unit) -> unit

(** [schedule_after engine ~delay thunk] runs [thunk] after [delay] seconds.
    @raise Invalid_argument if [delay] is negative or NaN. *)
val schedule_after : t -> delay:float -> (unit -> unit) -> unit

(** {2 Delivery pipelines}

    A [delivery] is a point-to-point packet pipeline, typically one per
    link direction: packets pushed with monotone arrival times pop in FIFO
    order and are handed to the receiver callback. Pushing into a ring
    with capacity left allocates nothing. *)

type delivery

(** [delivery ()] is a fresh pipeline delivering to a no-op receiver. *)
val delivery : unit -> delivery

(** [set_delivery_receiver d f] routes popped packets to [f]. *)
val set_delivery_receiver : delivery -> (Packet.t -> unit) -> unit

(** [push_delivery engine d ~at packet] enqueues [packet] to arrive at
    [at].
    @raise Invalid_argument if [at] is in the past, NaN, or earlier than
    the ring's newest pending arrival (arrivals must be monotone). *)
val push_delivery : t -> delivery -> at:float -> Packet.t -> unit

(** [delivery_backlog d] is the number of packets in flight in [d]. *)
val delivery_backlog : delivery -> int

(** [clear_delivery engine d] drops every packet still in flight in [d]
    without delivering any of them, returning how many were dropped.
    Used by fault injection: cutting a link mid-flight loses the photons
    already on the wire. Packets pushed after the clear are unaffected. *)
val clear_delivery : t -> delivery -> int

(** {2 Broadcast pipelines}

    Like deliveries, but each frame carries a link-level destination and
    the index of the sending station; one per shared segment. *)

type broadcast

val broadcast : unit -> broadcast

val set_broadcast_handler :
  broadcast -> (l2_dst:Addr.t option -> from:int -> Packet.t -> unit) -> unit

(** Like {!push_delivery}, with the same checks on [at]. *)
val push_broadcast :
  t -> broadcast -> at:float -> l2_dst:Addr.t option -> from:int ->
  Packet.t -> unit

val broadcast_backlog : broadcast -> int

(** {2 Running}

    There is one event loop, {!run_window}; {!run} and {!run_until} are
    epilogues over it. Simulations that arm monitors or shard across
    domains are driven by {!Par_engine}, whose one-partition case runs
    the same loop on this engine. *)

(** [run_window engine ~stop] processes events with time strictly below
    [stop] ([<= stop] with [~inclusive:true]) and returns how many fired.
    It neither flushes batched metrics nor advances the clock to [stop]:
    it is the per-round primitive of {!Par_engine}, whose worker domains
    must not touch the shared registry and whose later windows still push
    cross-partition arrivals at times [>= stop].
    @raise Invalid_argument if more than [limit] events fire (default
    100M), which indicates a runaway simulation. *)
val run_window : ?limit:int -> ?inclusive:bool -> t -> stop:float -> int

(** [run engine] is {!run_window} until the queue drains, then a flush of
    batched metrics (also when an event raises). *)
val run : ?limit:int -> t -> unit

(** [run_until engine ~stop] is {!run_window} over events with time
    [<= stop], then a flush and the clock set to [stop]. Events scheduled
    later stay queued. *)
val run_until : ?limit:int -> t -> stop:float -> unit

(** [next_time engine] is the earliest queued event time, [infinity] when
    the queue is empty — the horizon input of the conservative window
    computation. *)
val next_time : t -> float

(** [on_flush engine hook] registers [hook] to run (in registration order)
    whenever the engine flushes batched metrics — on every [run]/[run_until]
    exit, including exceptional ones. Components that batch per-packet
    counters into raw fields use this to publish them to the metrics
    registry; exported values are therefore exact exactly when the engine
    is idle. *)
val on_flush : t -> (unit -> unit) -> unit

(** [flush engine] runs the batched-metrics flush on demand — the event
    counter push plus every [on_flush] hook — so registry values are
    exact mid-run. {!Par_engine} flushes every partition this way before
    a pacer (a monitor tick) fires; costs one list walk, nothing when no
    component has batched anything since the last flush. *)
val flush : t -> unit

(** [pending engine] is the number of queued events (timers plus every
    packet resident in a delivery/broadcast ring). *)
val pending : t -> int

(** [events_processed engine] counts events executed since creation. *)
val events_processed : t -> int

(** [max_heap_depth engine] is the peak event-queue depth seen so far —
    mirrored by the *volatile* [netsim.engine.heap_depth_max] gauge.
    Volatile because it describes the execution plan, not the simulated
    network: a partitioned run keeps one queue per domain and cannot
    reproduce the sequential engine's instantaneous global peak. *)
val max_heap_depth : t -> int

(** [queue_walk_steps engine] and [queue_overflow_inserts engine] read the
    event queue's work counters since creation ({!Sched.walk_steps},
    {!Sched.overflow_inserts}); [bench scale] reports them per event. *)
val queue_walk_steps : t -> int

val queue_overflow_inserts : t -> int
