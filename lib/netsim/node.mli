(** Network nodes: hosts and routers.

    A node owns interfaces (attachments to links or segments), a routing
    table, application handlers bound to transport ports, and a *packet
    processing hook*. The default hook implements standard IP behaviour
    (deliver locally / forward / replicate multicast). Installing a custom
    hook is how the PLAN-P layer "replaces the standard packet processing
    behavior of the IP layer" (paper, Fig. 1). *)

type t

(** A processing hook sees every frame the node accepts (all frames when
    promiscuous). It may call back into {!ip_input}, {!forward},
    {!deliver_local} or {!transmit} to reuse the standard behaviour. *)
type hook = t -> ifindex:int -> l2_dst:Addr.t option -> Packet.t -> unit

type counters = {
  mutable frames_in : int;
  mutable delivered : int;
  mutable forwarded : int;
  mutable originated : int;
  mutable dropped_ttl : int;
  mutable dropped_no_route : int;
  mutable dropped_filtered : int;
  mutable dropped_unclaimed : int;
  mutable dropped_tx : int;  (** rejected by a full link/segment queue *)
  mutable dropped_down : int;  (** arrived at (or originated on) a crashed node *)
}

val create : Engine.t -> name:string -> addr:Addr.t -> t
val name : t -> string
val addr : t -> Addr.t
val engine : t -> Engine.t

(** [set_engine node e] re-homes the node's clock (used for cpu-cost
    scheduling) onto engine [e] — the partitioning seam. Single-threaded,
    pre-spawn only. *)
val set_engine : t -> Engine.t -> unit

val routing : t -> Routing.table
val counters : t -> counters

(** [set_processing_cost node seconds] models a serial packet-processing
    CPU: each received frame occupies the CPU for [seconds] before the hook
    runs; frames queue FIFO behind it. 0.0 (the default) processes
    instantly. This is how experiments model a gateway's per-packet cost. *)
val set_processing_cost : t -> float -> unit

(** [cpu_backlog node] is the number of frames waiting for CPU. *)
val cpu_backlog : t -> int

(** {1 Liveness (fault plane)} *)

(** [set_up node flag] — a down node drops every received or originated
    packet (counted as [dropped_down]); frames queued on its CPU at crash
    time die with it. Nodes start up. Bringing a node back up restores
    nothing by itself: a crash that loses state is modelled with
    {!reset_state}, and routing through/around the node is recomputed by
    {!Topology.compute_routes}, which treats down nodes as absent. *)
val set_up : t -> bool -> unit

val is_up : t -> bool

(** [reset_state node] models the state loss of a crash: clears the
    processing hook, all port handlers and defaults, promiscuous mode and
    the CPU cost model. Identity, interfaces, group memberships and
    counters survive; the routing table is owned by
    {!Topology.compute_routes}. *)
val reset_state : t -> unit

(** [set_multicast node registry] lets the node resolve group membership;
    without it multicast packets are filtered. *)
val set_multicast : t -> Multicast.t -> unit

val multicast : t -> Multicast.t option

(** {1 Interfaces} *)

(** [add_iface node ~name transmit] registers an outgoing transmitter and
    returns its index. [transmit] returns [false] when the medium dropped
    the frame. *)
val add_iface :
  t -> name:string -> (l2_dst:Addr.t option -> Packet.t -> bool) -> int

val iface_count : t -> int
val iface_name : t -> int -> string

(** [set_iface_monitor node ifindex f] registers [f] as the load monitor of
    interface [ifindex]; used by the PLAN-P [linkLoad] primitive. Returns
    current load in bits/s. *)
val set_iface_monitor : t -> int -> (unit -> float) -> unit

(** [iface_load_bps node ifindex] is 0.0 when no monitor is registered. *)
val iface_load_bps : t -> int -> float

(** [set_iface_capacity node ifindex bps] records the nominal capacity of
    an interface; read back by the PLAN-P [linkCapacity] primitive. Set
    automatically by {!Topology.connect}/{!Topology.attach}. *)
val set_iface_capacity : t -> int -> float -> unit

(** [iface_capacity_bps node ifindex] is 0.0 when unknown. *)
val iface_capacity_bps : t -> int -> float

(** {1 Frame input} *)

(** [receive node ~ifindex ~l2_dst packet] is the entry point called by the
    medium. Applies the link-level filter (unless promiscuous with a custom
    hook) and runs the hook. *)
val receive : t -> ifindex:int -> l2_dst:Addr.t option -> Packet.t -> unit

(** {1 Standard IP behaviour (callable from hooks)} *)

(** [default_process node ~ifindex ~l2_dst packet] is the standard IP-layer
    behaviour: link-level filter, then {!ip_input}. Custom hooks call this
    to fall back on packets they do not treat. *)
val default_process : t -> ifindex:int -> l2_dst:Addr.t option -> Packet.t -> unit

(** [ip_input node ~ifindex packet] delivers or forwards by destination. *)
val ip_input : t -> ifindex:int -> Packet.t -> unit

(** [deliver_local node packet] hands the packet to the application handler
    bound to its destination port. *)
val deliver_local : t -> Packet.t -> unit

(** [forward node ~ifindex packet] decrements TTL and routes; [ifindex] is
    the incoming interface (used to avoid multicast echo). *)
val forward : t -> ifindex:int -> Packet.t -> unit

(** [originate node packet] routes a locally generated packet (no TTL
    decrement). Multicast destinations replicate onto member-facing
    interfaces. *)
val originate : t -> Packet.t -> unit

(** [transmit node ~ifindex ~l2_dst packet] sends on a given interface. *)
val transmit : t -> ifindex:int -> l2_dst:Addr.t option -> Packet.t -> unit

(** {1 Hook & applications} *)

(** [set_hook node hook] replaces the processing behaviour; [clear_hook]
    restores the default. *)
val set_hook : t -> hook -> unit

val clear_hook : t -> unit
val has_hook : t -> bool
val set_promiscuous : t -> bool -> unit
val promiscuous : t -> bool

(** [on_udp node ~port f] binds an application receiver; replaces any
    previous binding on that port. *)
val on_udp : t -> port:int -> (t -> Packet.t -> unit) -> unit

val on_tcp : t -> port:int -> (t -> Packet.t -> unit) -> unit

(** [on_tcp_default node f] receives TCP packets whose destination port has
    no specific binding (e.g. responses arriving on ephemeral ports). *)
val on_tcp_default : t -> (t -> Packet.t -> unit) -> unit

(** [on_udp_default node f] — likewise for UDP. *)
val on_udp_default : t -> (t -> Packet.t -> unit) -> unit

(** [send_udp node ~dst ~src_port ~dst_port body] builds and originates.
    [chan_tag] tags the packet for a named PLAN-P channel; tagged traffic
    bypasses any installed [network] channel (see {!Packet.t}). *)
val send_udp :
  ?chan_tag:string ->
  t ->
  dst:Addr.t ->
  src_port:int ->
  dst_port:int ->
  Payload.t ->
  unit

val send_tcp :
  ?seq:int ->
  ?ack:int ->
  ?syn:bool ->
  ?fin:bool ->
  ?is_ack:bool ->
  t ->
  dst:Addr.t ->
  src_port:int ->
  dst_port:int ->
  Payload.t ->
  unit

(** [join_group node group] subscribes via the attached registry.
    @raise Invalid_argument if no registry is attached. *)
val join_group : t -> Addr.t -> unit

val leave_group : t -> Addr.t -> unit
