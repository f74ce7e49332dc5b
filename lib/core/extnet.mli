(** Extensible networks: the top-level API of this library.

    This module ties the pieces together the way the paper's system does:
    build a network ({!Netsim.Topology}), write an ASP in PLAN-P, [load] it
    onto routers and end hosts — verification first, then compilation by
    the chosen backend — and run the simulation. The submodule aliases
    re-export the full stack for direct use.

    {[
      let topo = Extnet.Topology.create () in
      let router = Extnet.Topology.add_host topo "r" "10.0.0.1" in
      ...
      match Extnet.load router ~source:my_asp () with
      | Ok handle -> ...
      | Error message -> ...
    ]} *)

module Topology = Netsim.Topology
module Node = Netsim.Node
module Addr = Netsim.Addr
module Packet = Netsim.Packet
module Payload = Netsim.Payload
module Engine = Netsim.Engine
module Segment = Netsim.Segment
module Tracer = Netsim.Tracer
module Faults = Netsim.Faults

(** Topology partitioning and the simulation driver: build one for a
    topology with {!Par.of_topology} ([~domains:1] is the sequential
    engine; more shards it across OCaml 5 domains) and drive it with
    {!Par.run} / {!Par.run_until}. Adaptation monitors tick as its
    pacers. *)
module Partition = Netsim.Partition

module Par = Netsim.Par_engine
module Obs = Obs
module Lang = Planp
module Runtime = Planp_runtime.Runtime
module Value = Planp_runtime.Value
module Verifier = Planp_analysis.Verifier
module Backends = Planp_jit.Backends

(** The in-band deployment plane: {!Deploy.Controller} ships code
    capsules over {!Netsim.Reliable} streams to per-node
    {!Deploy.Daemon}s, which verify on arrival and hot-swap by epoch. *)
module Deploy = Deploy

(** The closed-loop adaptation plane: {!Adapt.Monitor}s, pacers of the
    {!Par} driver, sample {!Obs.Registry} metrics into smoothed condition
    signals, an {!Adapt.Policy} decides, and {!Adapt.Plane} executes
    hot-swaps through {!Deploy.Controller} epochs under a KPI guard. *)
module Adapt = Adapt

(** How [load] treats programs the verifier rejects. *)
type admission =
  | Verified  (** reject programs failing any safety analysis (default) *)
  | Authenticated
      (** the paper's privileged path: skip verification (for legitimate
          protocols the conservative analyses cannot prove, e.g. flooding) *)

(** [load node ~source ()] parses, type checks, verifies, compiles and
    installs a PLAN-P program on [node]. The runtime is created on first
    use and reused for subsequent loads on the same node.

    @param backend one of {!Backends.all} (default: the JIT)
    @param admission see {!admission}
    @param name diagnostic label *)
val load :
  ?backend:Planp_runtime.Backend.t ->
  ?admission:admission ->
  ?name:string ->
  Node.t ->
  source:string ->
  unit ->
  (Runtime.program, string) result

(** [load_exn] raises [Failure] instead. *)
val load_exn :
  ?backend:Planp_runtime.Backend.t ->
  ?admission:admission ->
  ?name:string ->
  Node.t ->
  source:string ->
  unit ->
  Runtime.program

(** [runtime_of node] is the PLAN-P runtime attached to [node], if any. *)
val runtime_of : Node.t -> Runtime.t option

(** [deploy nodes ~source ()] loads the same program on every node — the
    paper's §5 "protocol management functionalities, such as ASP
    deployment". Atomic: on the first failure, programs already installed
    by this call are uninstalled and the error returned. *)
val deploy :
  ?backend:Planp_runtime.Backend.t ->
  ?admission:admission ->
  ?name:string ->
  Node.t list ->
  source:string ->
  unit ->
  ((Node.t * Runtime.program) list, string) result

(** [undeploy handles] removes a deployment. *)
val undeploy : (Node.t * Runtime.program) list -> unit

(** [verify_source source] parses, type checks and runs the full verifier,
    returning the report or a front-end error message. *)
val verify_source : string -> (Verifier.report, string) result

(** [check_source source] stops after type checking. *)
val check_source : string -> (Planp.Typecheck.checked, string) result
