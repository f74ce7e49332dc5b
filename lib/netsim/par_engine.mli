(** The simulation driver: deterministic conservative rounds over one or
    more partitions, one OCaml 5 domain each.

    Every run that arms a monitor or takes a domain count goes through
    this driver; one partition is the sequential engine (the same round
    loop on the calling domain, with nothing to exchange, so a run
    without pacers is a single window).

    A built topology is cut into per-domain partitions ({!Partition});
    each partition runs its own {!Engine} calendar queue, and the domains
    synchronize with conservative windows: per round, every domain
    publishes the earliest time left in its queue, the global minimum [M]
    is combined with the {e lookahead} (the minimum propagation latency
    over cut links) into the grant [W = M + lookahead], and every domain
    processes its events below [W] — a packet transmitted at [t >= M]
    arrives at [t + latency >= W], so causality cannot be violated.
    Domains with empty queues publish [infinity] (the null message) so
    the others still make progress.

    Cut-link transmissions travel through mutex-protected conduits and
    are drained into the destination partition's delivery ring at the
    next round, preserving per-direction send order. Within a partition,
    event order is exactly the sequential order restricted to that
    partition, so metrics and receiver-visible behavior match a
    [~domains:1] run — the one caveat is an exact-time tie between a
    cross-partition arrival and an unrelated local event, which may
    resolve in either order (see SIMULATOR.md).

    Restrictions with [domains >= 2]: the topology must be sharded
    {e before} any event is scheduled or packet injected; fault scenarios
    must be pinned into a single partition (see
    {!Faults.pin_targets}); multicast joins and route computation are
    pre-run operations. Periodic observers (adaptation monitors) are
    pacers ({!add_pacer}), never engine events: an engine-event tick
    would run inside one partition's window, reading the other
    partitions' unflushed metrics.
    Packet uids are allocated from one atomic counter, so they are always
    unique, but their {e values} (visible in timeline exports) only match
    the sequential run when at most one partition constructs fresh
    packets while the run is in flight — pre-run injection plus one
    re-emitting ASP partition satisfies this.
    The volatile [netsim.par.*] counters (rounds, null messages, horizon
    stalls, cross-partition packets) describe how the run was executed
    and stay out of deterministic exports; they exist, like the driver,
    on one-partition runs too. The volatile [netsim.engine.wall_cpu_s]
    gauge reads the process cpu time spent inside the last-created
    driver's {!run}/{!run_until} calls, one [Sys.time] reading around
    each drive (so on N domains it counts every domain's work). *)

type t

(** [of_topology ?pin topo ~domains] shards [topo] across [domains]
    partitions: nodes, segments and link endpoints are re-homed onto
    per-partition engines (partition 0 keeps the topology's original
    engine and its flush hooks) and each direction of a cut link is
    rerouted through a conduit. [pin] forces the listed nodes into one
    partition (fault-scenario targets). With [domains = 1] nothing is
    planned or re-homed, events may already be pending (the experiments
    schedule application work before they build the driver), and runs
    are byte-identical to the plain engine's.

    [Error] when [domains < 1], the engine already has pending events,
    the topology does not split into [domains] parts, or a cut link has
    zero latency (no lookahead). *)
val of_topology :
  ?pin:Node.t list -> Topology.t -> domains:int -> (t, string) result

(** [create ~domains] is [domains] fresh, unconnected engines driven by
    the same window loop — for embarrassingly-parallel workloads (the
    benchmark's independent flow meshes) that schedule work directly on
    {!engines}. No topology, no conduits, infinite lookahead.
    @raise Invalid_argument when [domains < 1]. *)
val create : domains:int -> t

val parts : t -> int

(** [engines t] — the per-partition engines, index = partition id. Only
    mutate them (schedule, push) single-threaded, between runs. *)
val engines : t -> Engine.t array

(** [lookahead t] is the window grant beyond the global minimum next
    event time; [infinity] when no link is cut. *)
val lookahead : t -> float

(** [now t] is the maximum simulated time over all partitions — equal to
    the sequential engine's clock at the same point (the globally last
    processed event, or the [run_until] stop). *)
val now : t -> float

(** [engine_of t node] is the engine of the partition owning [node].
    @raise Invalid_argument on a {!create}-built instance. *)
val engine_of : t -> Node.t -> Engine.t

(** [add_pacer t ~period ~until fire] registers a barrier-paced callback:
    [fire ~now] runs at [now t + period, + 2*period, ...] while the fire
    time stays [<= until], from the window-grant step with every
    partition quiescent. Before a fire, every engine clock is forced to
    the fire time in partition-index order — flushing each partition's
    batched metrics exactly like the sequential [run_until] epilogue —
    so the callback observes a globally consistent registry; windows are
    clamped (inclusively) at due times so no partition runs past a fire
    before it happens. So a pacer due at [T] fires after every event at
    [<= T] on every partition — whether scheduled before or after the
    pacer was added — and before any event later than [T]. Cross traffic
    the callback causes is drained into the delivery rings before the
    next grant. Multiple pacers fire in registration order. Runs with
    any domain count (including 1) are byte-identical.

    During {!run} (drain mode) due pacers keep firing — advancing the
    clocks — even after the event queues empty, until [until] passes.

    @raise Invalid_argument when [period] is not finite and positive, or
      [until] is not finite. *)
val add_pacer : t -> period:float -> until:float -> (now:float -> unit) -> unit

(** [run t] processes events until every queue and conduit drains, like
    {!Engine.run}: partition 0 runs on the calling domain and [parts - 1]
    domains are spawned for the duration of the call. [limit] bounds each
    engine's events per window.

    The first error, from an event or from a pacer, ends the run at the
    next barrier: no later window is granted, no later pacer fires (not
    even one due at the same barrier), and the partition that raised is
    not driven again. Metrics are then flushed, and the first error by
    partition index (a pacer's counts as partition 0's) is re-raised
    here. *)
val run : ?limit:int -> t -> unit

(** [run_until t ~stop] — like {!Engine.run_until}: events with time
    [<= stop] are processed and every partition clock is forced to
    [stop]. *)
val run_until : ?limit:int -> t -> stop:float -> unit

(** [rounds t] — synchronization rounds so far (execution-plane; also the
    volatile [netsim.par.rounds] counter). *)
val rounds : t -> int

(** [cross_packets t] — packets pushed through cut-link conduits so far
    (also the volatile [netsim.par.cross_packets] counter). *)
val cross_packets : t -> int
