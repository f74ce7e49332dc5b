type counters = {
  mutable frames_in : int;
  mutable delivered : int;
  mutable forwarded : int;
  mutable originated : int;
  mutable dropped_ttl : int;
  mutable dropped_no_route : int;
  mutable dropped_filtered : int;
  mutable dropped_unclaimed : int;
  mutable dropped_tx : int;
  mutable dropped_down : int;
}

(* Obs mirrors of [counters], plus hook invocations (which the plain
   counters never tracked). Drops share one family, split by reason. *)
type obs_counters = {
  o_frames_in : Obs.Registry.counter;
  o_delivered : Obs.Registry.counter;
  o_forwarded : Obs.Registry.counter;
  o_originated : Obs.Registry.counter;
  o_hook : Obs.Registry.counter;
  o_drop_ttl : Obs.Registry.counter;
  o_drop_no_route : Obs.Registry.counter;
  o_drop_filtered : Obs.Registry.counter;
  o_drop_unclaimed : Obs.Registry.counter;
  o_drop_tx : Obs.Registry.counter;
  o_drop_down : Obs.Registry.counter;
}

let make_obs_counters ~node_name =
  let labels = [ ("node", node_name) ] in
  let drop reason =
    Obs.Registry.counter
      ~labels:(("reason", reason) :: labels)
      ~help:"frames dropped, by reason" "netsim.node.drops"
  in
  {
    o_frames_in =
      Obs.Registry.counter ~labels ~help:"frames received"
        "netsim.node.frames_in";
    o_delivered =
      Obs.Registry.counter ~labels ~help:"frames delivered to an application"
        "netsim.node.delivered";
    o_forwarded =
      Obs.Registry.counter ~labels ~help:"frames forwarded"
        "netsim.node.forwarded";
    o_originated =
      Obs.Registry.counter ~labels ~help:"packets originated locally"
        "netsim.node.originated";
    o_hook =
      Obs.Registry.counter ~labels ~help:"processing-hook invocations"
        "netsim.node.hook_invocations";
    o_drop_ttl = drop "ttl";
    o_drop_no_route = drop "no_route";
    o_drop_filtered = drop "filtered";
    o_drop_unclaimed = drop "unclaimed";
    o_drop_tx = drop "tx";
    o_drop_down = drop "down";
  }

type iface = {
  if_name : string;
  if_send : l2_dst:Addr.t option -> Packet.t -> bool;
  mutable if_monitor : (unit -> float) option;
  mutable if_capacity : float;
}

type t = {
  node_name : string;
  node_addr : Addr.t;
  mutable node_engine : Engine.t;
  mutable ifaces : iface array;
  node_routing : Routing.table;
  mutable hook : hook option;
  mutable promisc : bool;
  udp_handlers : (t -> Packet.t -> unit) Int_table.t;
  tcp_handlers : (t -> Packet.t -> unit) Int_table.t;
  mutable udp_default : (t -> Packet.t -> unit) option;
  mutable tcp_default : (t -> Packet.t -> unit) option;
  mutable mcast : Multicast.t option;
  stats : counters;
  obs : obs_counters;
  mutable cpu_cost : float;
  mutable cpu_busy_until : float;
  mutable cpu_queue : int;
  mutable up : bool; (* a crashed node drops everything (fault plane) *)
}

and hook = t -> ifindex:int -> l2_dst:Addr.t option -> Packet.t -> unit

let create engine ~name ~addr =
  {
    node_name = name;
    node_addr = addr;
    node_engine = engine;
    ifaces = [||];
    node_routing = Routing.create ();
    hook = None;
    promisc = false;
    udp_handlers = Int_table.create 8;
    tcp_handlers = Int_table.create 8;
    udp_default = None;
    tcp_default = None;
    mcast = None;
    stats =
      {
        frames_in = 0;
        delivered = 0;
        forwarded = 0;
        originated = 0;
        dropped_ttl = 0;
        dropped_no_route = 0;
        dropped_filtered = 0;
        dropped_unclaimed = 0;
        dropped_tx = 0;
        dropped_down = 0;
      };
    obs = make_obs_counters ~node_name:name;
    cpu_cost = 0.0;
    cpu_busy_until = 0.0;
    cpu_queue = 0;
    up = true;
  }

let name node = node.node_name
let addr node = node.node_addr
let engine node = node.node_engine

(* Partitioning seam: re-home the node's clock (cpu-cost scheduling) onto
   its partition's engine.  Single-threaded, pre-spawn only. *)
let set_engine node engine = node.node_engine <- engine
let routing node = node.node_routing
let counters node = node.stats
let set_multicast node registry = node.mcast <- Some registry
let multicast node = node.mcast

let add_iface node ~name if_send =
  let ifindex = Array.length node.ifaces in
  node.ifaces <-
    Array.append node.ifaces
      [| { if_name = name; if_send; if_monitor = None; if_capacity = 0.0 } |];
  ifindex

let iface node ifindex =
  if ifindex < 0 || ifindex >= Array.length node.ifaces then
    invalid_arg
      (Printf.sprintf "Node %s: no interface %d" node.node_name ifindex);
  node.ifaces.(ifindex)

let iface_count node = Array.length node.ifaces
let iface_name node ifindex = (iface node ifindex).if_name

let set_iface_monitor node ifindex f =
  (iface node ifindex).if_monitor <- Some f

let iface_load_bps node ifindex =
  match (iface node ifindex).if_monitor with Some f -> f () | None -> 0.0

let set_iface_capacity node ifindex bps = (iface node ifindex).if_capacity <- bps
let iface_capacity_bps node ifindex = (iface node ifindex).if_capacity

let transmit node ~ifindex ~l2_dst packet =
  if not ((iface node ifindex).if_send ~l2_dst packet) then begin
    node.stats.dropped_tx <- node.stats.dropped_tx + 1;
    Obs.Registry.incr node.obs.o_drop_tx
  end

let is_group_member node group =
  match node.mcast with
  | Some registry -> Multicast.is_member registry ~group node.node_addr
  | None -> false

(* Allocation-free dispatch: [Int_table.find] + exception instead of
   [find_opt] so a delivery does not box the handler in an option. *)
let deliver_local node packet =
  let run f =
    node.stats.delivered <- node.stats.delivered + 1;
    Obs.Registry.incr node.obs.o_delivered;
    f node packet
  and unclaimed () =
    node.stats.dropped_unclaimed <- node.stats.dropped_unclaimed + 1;
    Obs.Registry.incr node.obs.o_drop_unclaimed
  in
  let fallback default =
    match default with Some f -> run f | None -> unclaimed ()
  in
  match packet.Packet.l4 with
  | Packet.Udp h -> (
      match Int_table.find node.udp_handlers h.Packet.udp_dst with
      | f -> run f
      | exception Not_found -> fallback node.udp_default)
  | Packet.Tcp h -> (
      match Int_table.find node.tcp_handlers h.Packet.tcp_dst with
      | f -> run f
      | exception Not_found -> fallback node.tcp_default)
  | Packet.Raw -> unclaimed ()

(* Replicate a multicast packet toward every member, one copy per distinct
   outgoing interface, skipping the interface it arrived on. *)
let multicast_out node ~in_ifindex packet =
  let group = packet.Packet.dst in
  match node.mcast with
  | None ->
      node.stats.dropped_no_route <- node.stats.dropped_no_route + 1;
      Obs.Registry.incr node.obs.o_drop_no_route
  | Some registry ->
      let out_ifaces = Hashtbl.create 4 in
      Multicast.iter_members registry ~group (fun member ->
          if not (Addr.equal member node.node_addr) then
            match Routing.find node.node_routing member with
            | { Routing.ifindex; _ }
              when ifindex <> in_ifindex
                   && not (Hashtbl.mem out_ifaces ifindex) ->
                Hashtbl.add out_ifaces ifindex ()
            | _ | (exception Routing.No_route) -> ());
      Hashtbl.iter
        (fun ifindex () ->
          transmit node ~ifindex ~l2_dst:(Some group) (Packet.clone packet))
        out_ifaces

(* The forwarding fast path allocates exactly one small record per hop
   (the TTL-decremented copy): route lookup raises instead of boxing an
   option, and the route's own [next_hop] option is passed through as the
   frame address rather than re-wrapped. *)
let forward node ~ifindex packet =
  if Addr.equal packet.Packet.dst node.node_addr then
    (* Addressed to this node (e.g. a hook re-emitted a local packet):
       up the stack, no TTL charge. *)
    deliver_local node packet
  else if packet.Packet.ttl <= 1 then begin
    node.stats.dropped_ttl <- node.stats.dropped_ttl + 1;
    Obs.Registry.incr node.obs.o_drop_ttl
  end
  else begin
    let packet = Packet.with_ttl packet (packet.Packet.ttl - 1) in
    node.stats.forwarded <- node.stats.forwarded + 1;
    Obs.Registry.incr node.obs.o_forwarded;
    if Addr.is_multicast packet.Packet.dst then begin
      multicast_out node ~in_ifindex:ifindex packet;
      if is_group_member node packet.Packet.dst then deliver_local node packet
    end
    else
      match Routing.find node.node_routing packet.Packet.dst with
      | { Routing.ifindex = out; next_hop } ->
          let l2_dst =
            match next_hop with
            | Some _ as hop -> hop
            | None -> Some packet.Packet.dst
          in
          transmit node ~ifindex:out ~l2_dst packet
      | exception Routing.No_route ->
          node.stats.dropped_no_route <- node.stats.dropped_no_route + 1;
          Obs.Registry.incr node.obs.o_drop_no_route
  end

let ip_input node ~ifindex packet =
  let dst = packet.Packet.dst in
  if Addr.equal dst node.node_addr then deliver_local node packet
  else if Addr.equal dst Addr.broadcast then deliver_local node packet
  else if Addr.is_multicast dst then begin
    (* A node can be both a member and a forwarder (router with local app). *)
    if is_group_member node dst then deliver_local node packet;
    if Array.length node.ifaces > 1 then forward node ~ifindex packet
  end
  else forward node ~ifindex packet

(* Does the default IP layer accept a frame with this link-level address? *)
let l2_accepts node l2_dst =
  match l2_dst with
  | None -> true
  | Some a ->
      Addr.equal a node.node_addr || Addr.equal a Addr.broadcast
      || (Addr.is_multicast a && is_group_member node a)

let default_process node ~ifindex ~l2_dst packet =
  if l2_accepts node l2_dst then ip_input node ~ifindex packet
  else begin
    node.stats.dropped_filtered <- node.stats.dropped_filtered + 1;
    Obs.Registry.incr node.obs.o_drop_filtered
  end

let receive_now node ~ifindex ~l2_dst packet =
  match node.hook with
  | Some hook ->
      if node.promisc || l2_accepts node l2_dst then begin
        Obs.Registry.incr node.obs.o_hook;
        hook node ~ifindex ~l2_dst packet
      end
      else begin
        node.stats.dropped_filtered <- node.stats.dropped_filtered + 1;
        Obs.Registry.incr node.obs.o_drop_filtered
      end
  | None -> default_process node ~ifindex ~l2_dst packet

let[@inline] drop_down node =
  node.stats.dropped_down <- node.stats.dropped_down + 1;
  Obs.Registry.incr node.obs.o_drop_down

let receive node ~ifindex ~l2_dst packet =
  if not node.up then drop_down node
  else begin
    node.stats.frames_in <- node.stats.frames_in + 1;
    Obs.Registry.incr node.obs.o_frames_in;
    if node.cpu_cost <= 0.0 then receive_now node ~ifindex ~l2_dst packet
    else begin
      (* Serial CPU: frames are processed [cpu_cost] apart, FIFO. *)
      let now = Engine.now node.node_engine in
      let start = Float.max now node.cpu_busy_until in
      let done_at = start +. node.cpu_cost in
      node.cpu_busy_until <- done_at;
      node.cpu_queue <- node.cpu_queue + 1;
      Engine.schedule node.node_engine ~at:done_at (fun () ->
          node.cpu_queue <- node.cpu_queue - 1;
          (* The CPU died with the frame still queued on it. *)
          if node.up then receive_now node ~ifindex ~l2_dst packet
          else drop_down node)
    end
  end

let set_processing_cost node seconds =
  if seconds < 0.0 then invalid_arg "Node.set_processing_cost: negative cost";
  node.cpu_cost <- seconds

let cpu_backlog node = node.cpu_queue

let originate_up node packet =
  node.stats.originated <- node.stats.originated + 1;
  Obs.Registry.incr node.obs.o_originated;
  let dst = packet.Packet.dst in
  if Addr.equal dst node.node_addr then deliver_local node packet
  else if Addr.is_multicast dst then begin
    multicast_out node ~in_ifindex:(-1) packet;
    if is_group_member node dst then deliver_local node packet
  end
  else begin
    match Routing.find node.node_routing dst with
    | { Routing.ifindex; next_hop } ->
        let l2_dst =
          match next_hop with Some _ as hop -> hop | None -> Some dst
        in
        transmit node ~ifindex ~l2_dst packet
    | exception Routing.No_route ->
        node.stats.dropped_no_route <- node.stats.dropped_no_route + 1;
        Obs.Registry.incr node.obs.o_drop_no_route
  end

let originate node packet =
  if not node.up then drop_down node else originate_up node packet

let set_up node flag = node.up <- flag
let is_up node = node.up

(* Crash-with-state-loss: everything a running program installed on the
   node (processing hook, port handlers, promiscuous mode, CPU model)
   is gone; identity, interfaces and counters survive.  The routing
   table is left to {!Topology.compute_routes}, which owns it. *)
let reset_state node =
  node.hook <- None;
  node.promisc <- false;
  Int_table.reset node.udp_handlers;
  Int_table.reset node.tcp_handlers;
  node.udp_default <- None;
  node.tcp_default <- None;
  node.cpu_cost <- 0.0;
  node.cpu_busy_until <- 0.0

let set_hook node hook = node.hook <- Some hook
let clear_hook node = node.hook <- None
let has_hook node = node.hook <> None

let set_promiscuous node flag = node.promisc <- flag
let promiscuous node = node.promisc
let on_udp node ~port f = Int_table.replace node.udp_handlers port f
let on_tcp node ~port f = Int_table.replace node.tcp_handlers port f
let on_udp_default node f = node.udp_default <- Some f
let on_tcp_default node f = node.tcp_default <- Some f

let send_udp ?chan_tag node ~dst ~src_port ~dst_port body =
  originate node
    (Packet.udp ?chan_tag ~src:node.node_addr ~dst ~src_port ~dst_port body)

let send_tcp ?seq ?ack ?syn ?fin ?is_ack node ~dst ~src_port ~dst_port body =
  originate node
    (Packet.tcp ?seq ?ack ?syn ?fin ?is_ack ~src:node.node_addr ~dst ~src_port
       ~dst_port body)

let registry_exn node =
  match node.mcast with
  | Some registry -> registry
  | None ->
      invalid_arg
        (Printf.sprintf "Node %s: no multicast registry attached"
           node.node_name)

let join_group node group =
  Multicast.join (registry_exn node) ~group node.node_addr

let leave_group node group =
  Multicast.leave (registry_exn node) ~group node.node_addr
