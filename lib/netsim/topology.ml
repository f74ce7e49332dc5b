(* A directed edge of the adjacency graph as built.  Edges created by
   [connect] carry their link so route computation can honour link
   liveness; the pairwise edges a shared segment induces carry [None]
   (segments have no up/down of their own — a station disappears when its
   node goes down). *)
type edge = {
  e_from : int;
  e_to : int;
  e_ifindex : int; (* out-interface on [e_from] *)
  e_link : Link.t option;
}

type t = {
  eng : Engine.t;
  registry : Multicast.t;
  mutable node_list : Node.t list;  (* newest first *)
  by_name : (string, Node.t * int) Hashtbl.t;
  by_addr : (Addr.t, Node.t) Hashtbl.t;
  mutable next_index : int;
  mutable edges : edge list;
  (* Media in creation order (newest first), for the partitioner. *)
  mutable link_list : (Link.t * Node.t * Node.t) list; (* (link, A, B) *)
  mutable seg_list : Segment.t list;
  (* Stations attached to each segment (by segment uid), for pairwise edges. *)
  stations : (int, (int * int) list ref) Hashtbl.t;
  (* Media by name, for the fault plane's scenario files. *)
  links_by_name : (string, Link.t) Hashtbl.t;
  segments_by_name : (string, Segment.t) Hashtbl.t;
}

let create () =
  {
    eng = Engine.create ();
    registry = Multicast.create ();
    node_list = [];
    by_name = Hashtbl.create 16;
    by_addr = Hashtbl.create 16;
    next_index = 0;
    edges = [];
    link_list = [];
    seg_list = [];
    stations = Hashtbl.create 8;
    links_by_name = Hashtbl.create 8;
    segments_by_name = Hashtbl.create 8;
  }

let engine topo = topo.eng
let mcast topo = topo.registry

let add_node topo ~name ~addr =
  if Hashtbl.mem topo.by_name name then
    invalid_arg (Printf.sprintf "Topology.add_node: duplicate name %s" name);
  if Hashtbl.mem topo.by_addr addr then
    invalid_arg
      (Printf.sprintf "Topology.add_node: duplicate address %s"
         (Addr.to_string addr));
  let node = Node.create topo.eng ~name ~addr in
  Node.set_multicast node topo.registry;
  Hashtbl.add topo.by_name name (node, topo.next_index);
  Hashtbl.add topo.by_addr addr node;
  topo.next_index <- topo.next_index + 1;
  topo.node_list <- node :: topo.node_list;
  node

let add_host topo name addr_string =
  add_node topo ~name ~addr:(Addr.of_string addr_string)

let index_of topo node =
  match Hashtbl.find_opt topo.by_name (Node.name node) with
  | Some (_, index) -> index
  | None -> invalid_arg "Topology: node does not belong to this topology"

let connect ?(name = "link") ?(bandwidth_bps = 10e6) ?(latency = 0.001)
    ?queue_capacity topo a b =
  let link =
    Link.create ~name ?queue_capacity topo.eng ~bandwidth_bps ~latency ()
  in
  let if_a =
    Node.add_iface a ~name:(name ^ ":a") (fun ~l2_dst:_ packet ->
        Link.send link ~from:Link.A packet)
  in
  let if_b =
    Node.add_iface b ~name:(name ^ ":b") (fun ~l2_dst:_ packet ->
        Link.send link ~from:Link.B packet)
  in
  Link.set_receiver link Link.A (fun packet ->
      Node.receive a ~ifindex:if_a ~l2_dst:None packet);
  Link.set_receiver link Link.B (fun packet ->
      Node.receive b ~ifindex:if_b ~l2_dst:None packet);
  (* Monitors read the owning node's clock so they stay correct when the
     node is re-homed onto a partition engine (Par_engine). *)
  Node.set_iface_monitor a if_a (fun () ->
      Flowstat.rate_bps (Link.stat link Link.A) ~now:(Engine.now (Node.engine a)));
  Node.set_iface_monitor b if_b (fun () ->
      Flowstat.rate_bps (Link.stat link Link.B) ~now:(Engine.now (Node.engine b)));
  Node.set_iface_capacity a if_a bandwidth_bps;
  Node.set_iface_capacity b if_b bandwidth_bps;
  let ia = index_of topo a and ib = index_of topo b in
  topo.edges <-
    { e_from = ia; e_to = ib; e_ifindex = if_a; e_link = Some link }
    :: { e_from = ib; e_to = ia; e_ifindex = if_b; e_link = Some link }
    :: topo.edges;
  Hashtbl.replace topo.links_by_name name link;
  topo.link_list <- (link, a, b) :: topo.link_list;
  link

let segment ?(name = "segment") ?(bandwidth_bps = 10e6) ?(latency = 0.001)
    ?queue_capacity topo () =
  let seg =
    Segment.create ~name ?queue_capacity topo.eng ~bandwidth_bps ~latency ()
  in
  Hashtbl.replace topo.segments_by_name name seg;
  topo.seg_list <- seg :: topo.seg_list;
  seg

let attach topo seg node =
  let station_ref = ref (-1) in
  let ifindex =
    Node.add_iface node
      ~name:(Segment.name seg)
      (fun ~l2_dst packet -> Segment.send seg ~from:!station_ref ~l2_dst packet)
  in
  station_ref :=
    Segment.attach seg (fun ~l2_dst packet ->
        Node.receive node ~ifindex ~l2_dst packet);
  Node.set_iface_monitor node ifindex (fun () -> Segment.load_bps seg);
  Node.set_iface_capacity node ifindex (Segment.bandwidth_bps seg);
  let index = index_of topo node in
  let stations =
    match Hashtbl.find_opt topo.stations (Segment.uid seg) with
    | Some stations -> stations
    | None ->
        let stations = ref [] in
        Hashtbl.add topo.stations (Segment.uid seg) stations;
        stations
  in
  List.iter
    (fun (other_index, other_if) ->
      topo.edges <-
        { e_from = index; e_to = other_index; e_ifindex = ifindex; e_link = None }
        :: topo.edges;
      topo.edges <-
        { e_from = other_index; e_to = index; e_ifindex = other_if; e_link = None }
        :: topo.edges)
    !stations;
  stations := (index, ifindex) :: !stations;
  ifindex

let nodes topo = List.rev topo.node_list

let find topo name =
  match Hashtbl.find_opt topo.by_name name with
  | Some (node, _) -> node
  | None -> raise Not_found

let find_by_addr topo addr = Hashtbl.find_opt topo.by_addr addr
let find_link topo name = Hashtbl.find_opt topo.links_by_name name
let find_segment topo name = Hashtbl.find_opt topo.segments_by_name name

(* Breadth-first shortest paths from [source]; returns the first-hop
   (neighbor-index, out-ifindex) for every reachable destination. Edge order
   follows insertion order so runs are deterministic. *)
let first_hops ~node_count ~adjacency source =
  let first : (int * int) option array = Array.make node_count None in
  let visited = Array.make node_count false in
  visited.(source) <- true;
  let queue = Queue.create () in
  List.iter
    (fun (next, out_if) ->
      if not visited.(next) then begin
        visited.(next) <- true;
        first.(next) <- Some (next, out_if);
        Queue.push next queue
      end)
    adjacency.(source);
  while not (Queue.is_empty queue) do
    let current = Queue.pop queue in
    List.iter
      (fun (next, _) ->
        if not visited.(next) then begin
          visited.(next) <- true;
          first.(next) <- first.(current);
          Queue.push next queue
        end)
      adjacency.(current)
  done;
  first

(* Routes reflect liveness at the time of the call: edges over a downed
   link and edges into a crashed node are skipped, so crashed nodes are
   neither destinations nor transit; a crashed node's own table is
   cleared. With everything up this is exactly the old behaviour. *)
let compute_routes topo =
  let node_count = topo.next_index in
  let node_array = Array.make node_count None in
  List.iter
    (fun node ->
      node_array.(index_of topo node) <- Some node)
    topo.node_list;
  let node_at index =
    match node_array.(index) with
    | Some node -> node
    | None -> assert false
  in
  let adjacency = Array.make node_count [] in
  (* Reverse to keep insertion order deterministic. *)
  List.iter
    (fun e ->
      let alive =
        (match e.e_link with Some link -> Link.is_up link | None -> true)
        && Node.is_up (node_at e.e_to)
      in
      if alive then
        adjacency.(e.e_from) <- (e.e_to, e.e_ifindex) :: adjacency.(e.e_from))
    topo.edges;
  for source = 0 to node_count - 1 do
    let node = node_at source in
    (* Host routes are ours to recompute; application-configured default
       routes (virtual addresses, gateway setups) survive reconvergence. *)
    Routing.clear_hosts (Node.routing node);
    if Node.is_up node then begin
      let first = first_hops ~node_count ~adjacency source in
      for dest = 0 to node_count - 1 do
        if dest <> source then
          match first.(dest) with
          | Some (hop_index, out_if) ->
              let hop = node_at hop_index in
              Routing.add_host (Node.routing node)
                (Node.addr (node_at dest))
                { Routing.ifindex = out_if; next_hop = Some (Node.addr hop) }
          | None -> ()
      done
    end
  done

let run ?limit topo = Engine.run ?limit topo.eng
let run_until ?limit topo ~stop = Engine.run_until ?limit topo.eng ~stop

(* Introspection for the partitioner ({!Partition}). *)

let node_count topo = topo.next_index
let node_index topo node = index_of topo node
let link_endpoints topo = List.rev topo.link_list

let segment_stations topo =
  let node_array = Array.make topo.next_index None in
  List.iter
    (fun node -> node_array.(index_of topo node) <- Some node)
    topo.node_list;
  List.rev_map
    (fun seg ->
      let stations =
        match Hashtbl.find_opt topo.stations (Segment.uid seg) with
        | Some stations ->
            List.rev_map
              (fun (index, _ifindex) ->
                match node_array.(index) with
                | Some node -> node
                | None -> assert false)
              !stations
        | None -> []
      in
      (seg, stations))
    topo.seg_list
