(** The deployment controller: chunks PLAN-P source into code capsules,
    ships them over {!Netsim.Reliable} streams to per-node deploy daemons,
    and tracks per-(node, program) epochs.

    All operations are asynchronous in simulated time: they enqueue
    traffic and return immediately; [on_done] fires from an engine event
    when the daemon's signed ACK (or NAK) arrives, or when the timeout
    expires. Drive the topology ({!Netsim.Topology.run}) to make progress.

    The controller owns one capsule stream and one reply stream per
    target, reused across operations, so epochs to one node are delivered
    in order even under retransmission. *)

type t

(** [create node ()] makes [node] the controller.

    @param secret shared ACK-signature secret (default ["extnet"], must
      match the daemons')
    @param chunk_size capsule payload bytes (default 512)
    @param daemon_port daemons' stream port (default
      {!Capsule.well_known_port})
    @param port_base first local port for per-target capsule and reply
      streams (default 52000; two ports per target)
    @param rto capsule-stream initial retransmission timeout in seconds
      (default 0.2); doubles per barren timeout up to [max_rto]
      (default 5.0) and resets on progress — see
      {!Netsim.Reliable.Sender.connect}
    @param retry_budget consecutive barren timeouts a capsule stream
      tolerates before the controller declares the target unreachable:
      every operation pending against it settles [Aborted] and the
      stream is torn down (a later operation dials afresh). Default:
      unlimited — the stream retries until the operation's deadline. *)
val create :
  ?secret:string ->
  ?chunk_size:int ->
  ?daemon_port:int ->
  ?port_base:int ->
  ?rto:float ->
  ?max_rto:float ->
  ?retry_budget:int ->
  Netsim.Node.t ->
  unit ->
  t

val node : t -> Netsim.Node.t

(** The fate of one operation on one target. *)
type outcome =
  | Acked of { epoch : int; install_latency : float; note : string }
      (** signed ACK verified; [install_latency] is simulated seconds *)
  | Nakked of { epoch : int; reason : string }
  | Timed_out
      (** no (valid) answer within the deadline: the target's stream is
          closed, so nothing installs late, and every other operation
          pending on the target settles [Timed_out] too *)
  | Skipped  (** rollout aborted before this target was attempted *)
  | Aborted of { reason : string }
      (** the capsule stream exhausted its retry budget — the target is
          unreachable and the operation was abandoned before its
          deadline *)

val outcome_to_string : outcome -> string

(** [deploy t ~target ~name ~source ~on_done ()] ships one program.

    @param backend backend name the daemon should compile with
      (default ["jit"])
    @param authenticated privileged path: daemon skips verification
    @param epoch override the epoch (default: one past the highest this
      controller has shipped to [(target, name)])
    @param timeout simulated seconds before giving up (default 60) *)
val deploy :
  ?backend:string ->
  ?authenticated:bool ->
  ?epoch:int ->
  ?timeout:float ->
  t ->
  target:Netsim.Addr.t ->
  name:string ->
  source:string ->
  on_done:(outcome -> unit) ->
  unit ->
  unit

(** [undeploy t ~target ~name ~on_done ()] retires the active program;
    its ACK clears the target's {!epoch_of}. *)
val undeploy :
  ?timeout:float ->
  t ->
  target:Netsim.Addr.t ->
  name:string ->
  on_done:(outcome -> unit) ->
  unit ->
  unit

(** [rollback t ~target ~name ~on_done ()] reactivates the target's
    retained previous epoch. *)
val rollback :
  ?timeout:float ->
  t ->
  target:Netsim.Addr.t ->
  name:string ->
  on_done:(outcome -> unit) ->
  unit ->
  unit

(** [epoch_of t ~target ~name] — the epoch this controller believes
    [target] runs: the last one it saw ACKed (a deploy's or a rollback's),
    or [None] when it never saw one or saw the program undeployed since. *)
val epoch_of : t -> target:Netsim.Addr.t -> name:string -> int option

(** What a staged rollout does after any target fails: a NAK, a
    timeout or an aborted capsule stream. *)
type nak_policy =
  | Abort  (** stop launching; untried targets come back [Skipped] *)
  | Continue  (** keep going and report per-target outcomes *)

(** [rollout t ~targets ~name ~source ~on_done ()] deploys one program to
    a node set with bounded concurrency ([concurrency] transfers in
    flight, default 2). Targets are attempted in list order; [on_done]
    receives one outcome per target, in the input order. [epoch] pins one
    epoch for every target (a node already past it NAKs as stale —
    useful for "converge the fleet on exactly this version").

    [on_target] fires once per target as its outcome settles (including
    the [Skipped] targets of an aborted rollout) — the per-stage view a
    coordinator uses to narrate or quarantine while the fleet is still
    converging.

    Under [~on_nak:Abort] any target that fails ([Nakked], [Timed_out]
    or [Aborted]) aborts the rollout, and an abort does not strand the
    fleet mixed-epoch: the targets that already ACKed the aborted epoch
    go through
    {!restore} against their pre-rollout acked epochs, under the same
    [concurrency] bound, before [on_done] fires. The outcome list still
    reports each target's original fate ([Acked] for the restored ones),
    so callers can tell which nodes briefly ran the new epoch. *)
val rollout :
  ?backend:string ->
  ?authenticated:bool ->
  ?epoch:int ->
  ?concurrency:int ->
  ?on_nak:nak_policy ->
  ?timeout:float ->
  ?on_target:(Netsim.Addr.t -> outcome -> unit) ->
  t ->
  targets:Netsim.Addr.t list ->
  name:string ->
  source:string ->
  on_done:((Netsim.Addr.t * outcome) list -> unit) ->
  unit ->
  unit

(** [restore t ~name ~prior ~on_done ()] unwinds a change to [name] on
    a set of targets, each paired with its {!epoch_of} from before the
    change: a target with [Some _] is rolled back to its retained
    previous version, and a target with [None] — the change was its
    first install, or the caller wants it retired — is undeployed.
    Targets are restored in list order with at most [concurrency]
    (default 2) operations in flight, and [on_done] receives one outcome
    per target, in the input order. An aborted {!rollout} restores
    through it, and so do the adaptation plane's KPI guard and its
    fleet-wide undeploy. *)
val restore :
  ?concurrency:int ->
  ?timeout:float ->
  t ->
  name:string ->
  prior:(Netsim.Addr.t * int option) list ->
  on_done:((Netsim.Addr.t * outcome) list -> unit) ->
  unit ->
  unit
