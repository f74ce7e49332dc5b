(** The closed-loop adaptation plane: a {!Monitor} feeding {!Signal}s, a
    {!Policy} evaluated every tick with hold times, hysteresis and
    cooldowns, and actions executed through the in-band deploy plane —
    hot-swapping ASP variants across a {e fleet} of targets as staged
    {!Deploy.Controller} rollouts, undeploying, retuning application
    parameters, or escalating. After every converged swap an optional KPI
    guard window compares the post-swap signal against its pre-swap
    baseline and restores every staged node to its pre-swap epoch at
    once (quarantining the variant for the run). A target that fails (a
    NAK, a timeout or an aborted stream) never leaves the fleet
    mixed-epoch: every rollout stages with [~on_nak:Abort], so the
    controller unwinds the nodes already staged before the previous
    variant resumes as the active one, and a node that repeatedly NAKs
    is benched from later operations. Every unwind — the aborted
    rollout's, the guard's and the undeploy action's — goes through
    {!Deploy.Controller.restore}.

    Arming an empty policy ({!Policy.is_empty}) creates no monitor,
    schedules nothing and registers no metrics — runs are
    event-for-event identical to runs without an adaptation plane (the
    Faults precedent, pinned by the golden-parity tests). *)

(** One deployable flavour of a program. [v_authenticated] rides the
    privileged deploy path that skips on-node verification — required for
    variants that intentionally shed packets (e.g. the MPEG B-frame
    filter), which the delivery verifier would reject. *)
type variant = { v_source : string; v_authenticated : bool }

(** How swap/undeploy actions reach the network: the controller the
    program's daemons already know (so epochs stay ordered, and its
    {!Deploy.Controller.epoch_of} names what a restore returns each node
    to), lookups
    from policy names to target fleets and variant sources, and the
    staging discipline for coordinated rollouts. *)
type deploy_env = {
  de_controller : Deploy.Controller.t;
  de_backend : string;
  de_targets_of : string -> Netsim.Addr.t list;
      (** program name -> the daemon nodes it lives on, in stage order
          (empty when the program has no deploy target) *)
  de_variant_of : program:string -> variant:string -> variant option;
  de_concurrency : int;
      (** operations in flight per rollout, restore or fleet-wide
          undeploy (see {!Deploy.Controller.rollout}) *)
}

(** One adaptation decision, for timelines and tests. *)
type event = {
  ev_at : float;
  ev_rule : string;
  ev_what : string;  (** the action, rendered *)
  ev_note : string;  (** outcome: deploy ACK/NAK, guard verdict, ... *)
}

type stats = {
  st_ticks : int;
  st_fired : int;  (** rule firings (actions started) *)
  st_swaps : int;  (** fleet-converged swaps *)
  st_failed_swaps : int;  (** NAK / timeout / abort / partial fleet *)
  st_undeploys : int;
  st_retunes : int;
  st_escalations : int;
  st_guard_checks : int;
  st_rollbacks : int;  (** guard regressions rolled back (fleet-wide) *)
  st_partial_rollbacks : int;
      (** partially-acked rollouts unwound to keep the fleet unmixed *)
  st_node_quarantines : int;  (** nodes benched for repeated NAKs *)
  st_events : event list;  (** chronological *)
}

type t

val arm :
  ?registry:Obs.Registry.t ->
  ?env:deploy_env ->
  ?active:(string * string) list ->
  ?on_retune:(param:string -> value:float -> unit) ->
  ?on_escalate:(reason:string -> unit) ->
  ?on_swap:(program:string -> variant:string -> unit) ->
  par:Netsim.Par_engine.t ->
  until:float ->
  signals:(string * Monitor.source) list ->
  Policy.t ->
  t
(** [arm ~par ~until ~signals policy] wires and starts the loop: the
    monitor ticks as a pacer of the driver [par] ({!Monitor.start}) every
    [policy.period] until [until], so every tick samples a registry
    flushed on every partition and decides with the whole fleet
    quiescent — runs are byte-identical for any domain count. Run the
    simulation through [par] ({!Netsim.Par_engine.run_until}); a
    sequential run is [Par_engine.of_topology topo ~domains:1]. With an
    [env], decisions are timed and guard windows scheduled on the engine
    of the controller's node, read when they happen: the partition that
    runs the controller's stage ACKs. Without one they are timed on
    partition 0.

    @param env required when any rule swaps or undeploys
    @param active the initially-deployed variant of each program, so the
      hysteresis check can suppress a swap to the variant already live
    @param on_swap runs after a swap converges on the whole fleet (e.g.
      start the HTTP health prober when the failover gateway activates)
    @raise Invalid_argument when a rule or guard references a signal not
      in [signals], a deploy action has no [env], or the env's
      [de_concurrency] is not positive. *)

val stats : t -> stats
val events : t -> event list

val active_variant : t -> string -> string option
(** The variant the plane believes is live for a program (fleet-wide:
    convergence or a clean rollback keeps every node on one variant). *)

val quarantined_nodes : t -> Netsim.Addr.t list
(** Nodes benched after 3 consecutive NAKs, in quarantine order. *)

val signal_value : t -> string -> float option
(** Current smoothed value of a wired signal. *)

val monitor : t -> Monitor.t option
(** [None] exactly when the policy was empty (nothing scheduled). *)
