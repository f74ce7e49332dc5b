(** The fault-injection plane: deterministic, seedable network-dynamics
    scenarios scheduled through the simulation engine.

    A {e scenario} is a seed plus a list of timed fault events targeting
    links, segments and nodes by the names they were created with:

    - {b link flaps} — [Link_down] takes a link down at [ft_at] and (when
      bounded) back up at [ft_until]; packets in flight at the cut are
      lost and counted (see {!Link.set_up}).
    - {b loss / corruption} — [Loss] and [Corrupt] set probabilistic
      per-packet models on a link or segment over a window, driven by the
      scenario's own random stream (see {!Impair}).
    - {b congestion bursts} — [Congest] scales a medium's bandwidth and/or
      queue capacity down for a window and restores the pre-burst values
      afterwards.
    - {b node crash / restart} — [Crash] takes a node down ([~wipe:true]
      also drops its runtime state via {!Node.reset_state}); a bounded
      crash restarts the node at [ft_until] and runs the {!on_restart}
      callbacks so the application layer can re-register hooks.
    - {b reconvergence} — [Reroute] recomputes every routing table with
      {!Topology.compute_routes}, honouring liveness at that instant.
      Crashes and bounded link flaps trigger an implicit reconvergence at
      both edges of their window, as do link up/down transitions.

    {b Determinism.} All randomness comes from one xorshift64* stream
    seeded by the scenario; engine event order is deterministic, so a
    given (scenario, topology, workload) triple replays bit-identically.
    An empty scenario arms nothing and leaves every medium untouched —
    runs with it are bit-identical to runs without a fault plane.

    {b Cost.} Arming a scenario schedules plain engine timers; media with
    no active loss/corruption window keep their [impair] field [None],
    so idle cost is one branch per send. Loss/corruption tallies are
    batched in raw counters and flushed to [netsim.faults.*] metrics via
    {!Engine.on_flush}. *)

type target = Tlink of string | Tsegment of string | Tnode of string

type kind =
  | Link_down  (** link target; bounded window = flap *)
  | Loss of float  (** link or segment target; probability per packet *)
  | Corrupt of float  (** link or segment target; probability per packet *)
  | Congest of { bandwidth_factor : float; queue_factor : float }
      (** link or segment target; factors in (0, 1] applied for the window *)
  | Crash of { wipe : bool }  (** node target; [wipe] drops runtime state *)
  | Reroute  (** no target; recompute all routing tables *)

type event = {
  ft_at : float;  (** injection time (seconds of simulated time) *)
  ft_until : float option;  (** end of the window; [None] = permanent *)
  ft_kind : kind;
  ft_target : target option;  (** [None] only for [Reroute] *)
}

type scenario = { seed : int; events : event list }

val empty : scenario
(** No faults; arming it is a no-op. *)

val parse_scenario : string -> (scenario, string) result
(** Parses the scenario-file format documented in [doc/FAULTS.md]:
    {[
      # comments and blank lines are ignored
      seed 42
      at 1.0 until 2.5 link down uplink
      at 0.5 link loss uplink 0.05
      at 0.5 until 9.0 segment corrupt lan 0.01
      at 3.0 until 6.0 congest backbone bandwidth 0.5 queue 0.5
      at 4.0 until 6.0 node crash router
      at 4.0 node crash-wipe router
      at 2.5 reroute
    ]}
    Lines and number fields are read by {!Line_format}: [at] and
    [until] are [Finite], rates [Probability], congestion factors
    [Factor] and [seed] an [Int]. Errors name the line and field, e.g.
    ["line 1: at: not a finite number (nan)"]. *)

val scenario_of_events : ?seed:int -> event list -> scenario

type handle

val arm : ?engine:Engine.t -> Topology.t -> scenario -> handle
(** [arm topo scenario] resolves every target name against [topo] and
    schedules the events on its engine. Call before (or during) the run;
    events whose time has already passed fire on the next engine step.
    [?engine] overrides where the fault timers are scheduled: a
    partitioned run ({!Par_engine}) passes the engine of the partition
    the scenario's targets are pinned into, so faults fire on the domain
    that owns their targets.
    @raise Invalid_argument when a target name does not resolve or an
    event is malformed (e.g. [Loss] on a node). *)

val pin_targets : Topology.t -> scenario -> (Node.t list, string) result
(** [pin_targets topo scenario] is the node set a partitioned run must
    pin into a single partition for this scenario to stay deterministic:
    the endpoints of every targeted link and the stations of every
    targeted segment (the shared scenario RNG then draws on one domain,
    in sequential order). [Error] for faults that reconverge routes
    globally ([Link_down], [Crash], [Reroute]) or targets that do not
    resolve. [Ok []] for an empty scenario. *)

val on_restart : handle -> (Node.t -> unit) -> unit
(** [on_restart handle f] registers [f] to run whenever a crashed node
    restarts (the end of a bounded [Crash] window), after the node is
    back up and routes have reconverged — the place to re-install
    processing hooks lost to a wipe. Callbacks run in registration
    order. *)

val injected : handle -> int
(** Total fault events injected so far (metrics mirror:
    [netsim.faults.injected]). *)
