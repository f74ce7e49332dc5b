(** The per-node PLAN-P runtime.

    Attaching a runtime to a {!Netsim.Node.t} replaces the node's packet
    processing (paper Fig. 1: "these programs replace the standard packet
    processing behavior of the IP layer"). Installed programs are consulted
    in installation order; within a program, channels in declaration order.
    The first channel whose name matches the packet's tag ([network] for
    untagged traffic) *and* whose packet type decodes the packet processes
    it. Untreated packets fall through to standard IP behaviour.

    Program-level exceptions escaping a channel body drop the packet and
    are counted in {!stats} — the situation the delivery analysis
    (paper §2.1) exists to rule out.

    Per-packet work is limited to the packet itself. [install] builds one
    {!Pkt_codec.decoder} per channel, and the runtime builds one
    {!World.t} per incoming interface (plus one for {!inject}'s -1) the
    first time a packet arrives there, then hands that same world to
    every later packet from the interface. A world reads the clock, the
    node's address and the interface loads when the program asks, through
    the node's current engine, so it stays correct after a partitioned
    run ({!Netsim.Par_engine}) moves the node onto another engine. *)

type t

type stats = {
  mutable handled : int;  (** packets processed by some channel *)
  mutable fallthrough : int;  (** packets left to standard IP processing *)
  mutable errors : int;  (** uncaught program exceptions *)
}

(** [attach node] creates a runtime and installs its hook on [node].
    Also installs the primitive library on first use.

    @param resource_bound the paper's rejected-but-discussed alternative to
      verification (§2.1): cap the TTL of every packet a program emits, so
      even an unverified cycling protocol dies after that many hops. The
      paper's objection — "it introduces a safety problem of unintended
      program termination" — is demonstrated in the test suite: a verified
      program whose legitimate path is longer than the bound loses packets. *)
val attach : ?resource_bound:int -> Netsim.Node.t -> t

val node : t -> Netsim.Node.t
val stats : t -> stats

(** An installed program. *)
type program

type error =
  | Parse_error of string
  | Type_error of string
  | Rejected of string  (** refused by the [pre] validation hook *)

val error_to_string : error -> string

(** [install t ~source ()] parses, type checks, validates, compiles and
    activates a program.

    @param backend execution backend (default: the interpreter)
    @param pre validation hook run between type checking and compilation —
      the place where {!Planp_analysis.Verifier} plugs in
    @param name label used in diagnostics *)
val install :
  ?backend:Backend.t ->
  ?pre:(Planp.Typecheck.checked -> (unit, string) result) ->
  ?name:string ->
  t ->
  source:string ->
  unit ->
  (program, error) result

(** [install_exn] is [install], raising [Failure] on error. *)
val install_exn :
  ?backend:Backend.t ->
  ?pre:(Planp.Typecheck.checked -> (unit, string) result) ->
  ?name:string ->
  t ->
  source:string ->
  unit ->
  program

(** [uninstall t program] deactivates; the node hook is removed when no
    program remains. *)
val uninstall : t -> program -> unit

val installed_programs : t -> program list
val program_name : program -> string

(** [proto_state program] is the current protocol state (shared across the
    program's channels). *)
val proto_state : program -> Value.t

(** [channel_state program chan_name index] is the state of the [index]-th
    overload of [chan_name] (0-based). *)
val channel_state : program -> string -> int -> Value.t option

(** [channel_hits program] — per channel declaration (in source order):
    (name, packet type, packets handled). *)
val channel_hits : program -> (string * string * int) list

(** [output t] is everything the node's programs printed. *)
val output : t -> string

(** [inject t packet] runs a packet through the runtime as locally
    originated (incoming interface -1, so [OnNeighbor] floods every
    interface); pass [ifindex] to simulate arrival on a wire instead. *)
val inject : ?ifindex:int -> t -> Netsim.Packet.t -> unit
