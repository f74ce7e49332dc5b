(** Load-balancing gateways for the HTTP cluster (§3.2, Fig. 2/8).

    [gateway_program] is the PLAN-P ASP of the paper's Fig. 2: incoming
    requests to the virtual server address pick a physical server (modulo
    on request count — the paper's strategy), recorded per connection in a
    hash table so later packets of the same connection stick; responses get
    their source rewritten back to the virtual address.

    [install_native_gateway] is the "built-in C version": the same logic as
    a compiled OCaml hook, the baseline of Fig. 8 curve (c). *)

(** Per-packet gateway CPU cost for compiled code (seconds) — ~21000
    cycles on the paper's 170 MHz Ultra-1. *)
val gateway_cost_compiled : float

(** [gateway_cost backend_name] scales the compiled cost by the measured
    interpretation overhead (interp ~10x, bytecode ~2x). *)
val gateway_cost : string -> float

(** Load-balancing strategies (paper 5: "several load-balancing
    algorithms ... helpful for the administrator in managing service
    configuration"):

    - [Modulo]: alternate servers per new connection (the paper's 3.2
      strategy, "a modulo on the number of requests");
    - [Source_hash]: hash the client address, giving client-affinity
      without table growth;
    - [Weighted (a, b)]: distribute proportionally to fixed weights
      (heterogeneous-cluster support). *)
type strategy = Modulo | Source_hash | Weighted of int * int

val strategy_name : strategy -> string

(** [gateway_program ~vip ~servers ()] generates the ASP for a virtual
    address [vip] fronting two [servers] (dotted-quad strings).
    @param strategy defaults to [Modulo] *)
val gateway_program :
  ?port:int ->
  ?strategy:strategy ->
  vip:string ->
  servers:string * string ->
  unit ->
  string

(** [failover_gateway_program ~vip ~servers ()] is the fault-tolerant
    variant (paper 5: "enrich the HTTP cluster server experiment with
    fault-tolerance capabilities"): a [health] control channel marks a
    physical server up or down, and requests avoid downed servers. The
    protocol state is the pair of server health flags packed as an int. *)
val failover_gateway_program :
  ?port:int -> vip:string -> servers:string * string -> unit -> string

(** [health_packet ~gateway ~server_index ~up] builds the tagged control
    packet a health monitor sends to the gateway's [health] channel. *)
val health_packet :
  gateway:Netsim.Addr.t -> server_index:int -> up:bool -> Netsim.Packet.t

(** [native_gateway ~vip ~servers ()] is the built-in gateway's decision:
    [route packet] is the rewritten packet to forward ([None]: standard
    processing), and the counter reports rewritten requests. *)
val native_gateway :
  ?port:int ->
  vip:Netsim.Addr.t ->
  servers:Netsim.Addr.t * Netsim.Addr.t ->
  unit ->
  (Netsim.Packet.t -> Netsim.Packet.t option) * int ref

(** [install_native_gateway node ~vip ~servers ()] installs
    {!native_gateway} as the node's hook. The returned counter reports
    rewritten requests. *)
val install_native_gateway :
  ?port:int ->
  Netsim.Node.t ->
  vip:Netsim.Addr.t ->
  servers:Netsim.Addr.t * Netsim.Addr.t ->
  unit ->
  int ref
