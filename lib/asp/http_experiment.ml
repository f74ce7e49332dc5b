module Topology = Netsim.Topology
module Node = Netsim.Node
module Par = Netsim.Par_engine
module Routing = Netsim.Routing
module Runtime = Planp_runtime.Runtime

type setup =
  | Single
  | Asp_gateway of Planp_runtime.Backend.t
  | Native_gateway
  | Disjoint

let setup_name = function
  | Single -> "single server"
  | Asp_gateway backend ->
      Printf.sprintf "ASP gateway (%s), 2 servers"
        backend.Planp_runtime.Backend.backend_name
  | Native_gateway -> "built-in gateway, 2 servers"
  | Disjoint -> "2 servers, disjoint clients"

let gateway_cost_compiled = Http_asp.gateway_cost_compiled
let gateway_cost = Http_asp.gateway_cost

(* How a multi-gateway adaptation plane is organized: one plane
   coordinating every gateway through staged rollouts, or one
   independent plane per gateway, each watching only its own clients
   (the noisier per-node baseline the bench compares against). *)
type coordination = Coordinated | Independent

type config = {
  duration : float;
  warmup : float;
  client_count : int;
  trace_requests : int;
  trace_files : int;
  seed : int;
  strategy : Http_asp.strategy;
  deploy : Deploy_mode.t;
  faults : Netsim.Faults.scenario option;
  adaptation : Adapt.Policy.t option;
  gateways : int;
  coordination : coordination;
}

let default_config =
  {
    duration = 30.0;
    warmup = 5.0;
    client_count = 8;
    trace_requests = 80_000;
    trace_files = 2_000;
    seed = 42;
    strategy = Http_asp.Modulo;
    deploy = Deploy_mode.Preinstalled;
    faults = None;
    adaptation = None;
    gateways = 1;
    coordination = Coordinated;
  }

(* The canned closed-loop policy: the Modulo gateway keeps assigning new
   connections to a crashed server (clients only recover by re-requesting
   after their retry timeout), so a climbing retry rate is the flap
   signal. Swapping in the failover gateway — and starting its health
   prober on the ACK — routes around the dead server. The guard watches
   completed replies per second. *)
let adaptive_policy () =
  match
    Adapt.Policy.parse
      {|period 0.5
alpha 0.4
rule failover: when retry_rate > 1 for 0.5 cooldown 6 do swap http-gateway failover
guard goodput window 4 min-ratio 0.5
|}
  with
  | Ok policy -> policy
  | Error msg -> failwith ("Http_experiment.adaptive_policy: " ^ msg)

type point = {
  workers : int;
  replies_per_s : float;
  mean_response_ms : float;
  p95_response_ms : float;
  gateway_requests : int;
  server_loads : int * int;
  client_retries : int;
  adaptation : Adapt.Plane.stats option;
      (** the coordinated (or sole) plane, when one was armed *)
  adaptations : Adapt.Plane.stats list;
      (** every armed plane — one per gateway under [Independent] *)
}

let vip_string = "10.3.0.100"
let server0_string = "10.3.0.1"
let server1_string = "10.3.0.2"

(* Split [total] into [bins] near-equal parts. *)
let split_workers total bins =
  List.init bins (fun i -> (total / bins) + if i < total mod bins then 1 else 0)

let run_point config setup ~workers =
  if config.gateways < 1 then
    invalid_arg "Http_experiment: gateways must be >= 1";
  let n_gw = config.gateways in
  let topo = Topology.create () in
  (* With [gateways = 1] the topology (names, addresses, creation order)
     is exactly the classic single-gateway one; [n >= 2] splits the
     clients round-robin across a gateway fleet behind the same VIP. *)
  let gateways =
    List.init n_gw (fun i ->
        let name =
          if n_gw = 1 then "gateway" else Printf.sprintf "gateway%d" i
        in
        Topology.add_host topo name (Printf.sprintf "10.3.0.%d" (254 - i)))
  in
  let gateway_of_client i = List.nth gateways (i mod n_gw) in
  let server0_node = Topology.add_host topo "server0" server0_string in
  let server1_node = Topology.add_host topo "server1" server1_string in
  let cluster =
    Topology.segment topo ~name:"cluster" ~bandwidth_bps:100e6 ~latency:0.0002
      ()
  in
  List.iter (fun gw -> ignore (Topology.attach topo cluster gw)) gateways;
  ignore (Topology.attach topo cluster server0_node);
  ignore (Topology.attach topo cluster server1_node);
  let clients =
    List.init config.client_count (fun i ->
        let client =
          Topology.add_host topo
            (Printf.sprintf "client%d" i)
            (Printf.sprintf "10.4.%d.1" i)
        in
        ignore
          (Topology.connect topo
             ~name:(Printf.sprintf "access%d" i)
             ~bandwidth_bps:10e6 ~latency:0.001 (gateway_of_client i) client);
        client)
  in
  Topology.compute_routes topo;
  (* Names resolvable by fault scenarios: segment "cluster", links
     "access0".."accessN", and every node name above. *)
  Option.iter
    (fun scenario -> ignore (Netsim.Faults.arm topo scenario))
    config.faults;
  (* The virtual server address has no node: clients reach it through their
     default route into the gateway. *)
  let vip = Netsim.Addr.of_string vip_string in
  List.iteri
    (fun i client ->
      Routing.set_default (Node.routing client)
        (Some
           { Routing.ifindex = 0;
             next_hop = Some (Node.addr (gateway_of_client i)) }))
    clients;
  let server0 = Http_app.Server.start server0_node () in
  let server1 = Http_app.Server.start server1_node () in
  (* The deploy plane that shipped the gateway ASP, when there is one —
     the adaptation plane swaps through its controller. *)
  let gateway_plane = ref None in
  (* Gateway flavour; returns a thunk reading how many requests it routed. *)
  let read_gateway_requests =
    match setup with
    | Single | Disjoint -> fun () -> 0
    | Native_gateway ->
        let counters =
          List.map
            (fun gw ->
              Node.set_processing_cost gw (gateway_cost "native");
              Http_asp.install_native_gateway gw ~vip
                ~servers:(Node.addr server0_node, Node.addr server1_node)
                ())
            gateways
        in
        fun () -> List.fold_left (fun acc c -> acc + !c) 0 counters
    | Asp_gateway backend ->
        List.iter
          (fun gw ->
            Node.set_processing_cost gw
              (gateway_cost backend.Planp_runtime.Backend.backend_name))
          gateways;
        (* In_band ships the gateway ASP from server0 across the cluster
           segment at the start of the run (a staged rollout when the
           fleet has several gateways); the few requests that reach a
           gateway before activation are retried by the clients well
           inside the warmup window. *)
        let plane =
          Deploy_mode.install config.deploy ~backend ~controller:server0_node
            ~programs:
              (List.map
                 (fun gw ->
                   ( gw,
                     "http-gateway",
                     Http_asp.gateway_program ~strategy:config.strategy
                       ~vip:vip_string
                       ~servers:(server0_string, server1_string) () ))
                 gateways)
            ()
        in
        gateway_plane := Some plane;
        fun () ->
          (* The ASP counts routed requests in its protocol state. *)
          List.fold_left
            (fun acc gw ->
              match Deploy_mode.find plane gw "http-gateway" with
              | Some program -> (
                  match Runtime.proto_state program with
                  | Planp_runtime.Value.Vint n -> acc + n
                  | _ -> acc)
              | None -> acc)
            0 gateways
  in
  let trace =
    Http_app.Trace.generate ~requests:config.trace_requests
      ~files:config.trace_files ~seed:config.seed ()
  in
  let per_client = split_workers workers config.client_count in
  let client_apps =
    List.map2
      (fun i (client, client_workers) ->
        let target =
          match setup with
          | Single -> Node.addr server0_node
          | Asp_gateway _ | Native_gateway -> vip
          | Disjoint ->
              if i < config.client_count / 2 then Node.addr server0_node
              else Node.addr server1_node
        in
        if client_workers = 0 then None
        else
          Some
            (Http_app.Client.start ~warmup:config.warmup client ~server:target
               ~workers:client_workers ~trace ()))
      (List.init config.client_count Fun.id)
      (List.combine clients per_client)
  in
  let sum_clients read =
    List.fold_left
      (fun acc app -> match app with Some app -> acc + read app | None -> acc)
      0 client_apps
  in
  let par = Result.get_ok (Par.of_topology topo ~domains:1) in
  let adaptation_planes =
    match config.adaptation with
    | None -> []
    | Some policy when Adapt.Policy.is_empty policy ->
        (* Arms nothing; bit-identical to [adaptation = None]. *)
        [ Adapt.Plane.arm ~par ~until:config.duration ~signals:[] policy ]
    | Some policy ->
        let backend, ctl =
          match (setup, Option.bind !gateway_plane Deploy_mode.controller) with
          | Asp_gateway backend, Some ctl -> (backend, ctl)
          | _ ->
              invalid_arg
                "Http_experiment: adaptation needs an Asp_gateway setup with \
                 deploy = In_band (hot-swaps ride the deploy daemons)"
        in
        let variant_source = function
          | "plain" ->
              Some
                (Http_asp.gateway_program ~strategy:config.strategy
                   ~vip:vip_string
                   ~servers:(server0_string, server1_string) ())
          | "failover" ->
              Some
                (Http_asp.failover_gateway_program ~vip:vip_string
                   ~servers:(server0_string, server1_string) ())
          | _ -> None
        in
        let env_for targets =
          {
            Adapt.Plane.de_controller = ctl;
            de_backend = backend.Planp_runtime.Backend.backend_name;
            de_targets_of =
              (fun program -> if program = "http-gateway" then targets else []);
            de_variant_of =
              (fun ~program ~variant ->
                if program <> "http-gateway" then None
                else
                  Option.map
                    (fun v_source ->
                      { Adapt.Plane.v_source; v_authenticated = false })
                    (variant_source variant));
            de_concurrency = 2;
          }
        in
        (* The failover gateway is blind until its health prober runs;
           start it the moment its swap is acknowledged (each gateway
           probes for itself). *)
        let probers = Array.make n_gw false in
        let start_prober g =
          if not probers.(g) then begin
            probers.(g) <- true;
            ignore
              (Http_ft.Monitor.start (List.nth gateways g)
                 ~servers:(Node.addr server0_node, Node.addr server1_node)
                 ~until:config.duration ())
          end
        in
        let arm_plane ~targets ~on_swap ~signals =
          Adapt.Plane.arm ~env:(env_for targets)
            ~active:[ ("http-gateway", "plain") ]
            ~on_swap ~par ~until:config.duration ~signals policy
        in
        let rate_signals read_retries read_completed =
          [
            ( "retry_rate",
              Adapt.Monitor.Rate_of (fun () -> float_of_int (read_retries ()))
            );
            ( "goodput",
              Adapt.Monitor.Rate_of (fun () -> float_of_int (read_completed ()))
            );
          ]
        in
        (match config.coordination with
        | Coordinated ->
            (* One plane owns the whole gateway fleet: the swap is a
               staged rollout retuning every gateway together. *)
            [
              arm_plane
                ~targets:(List.map Node.addr gateways)
                ~on_swap:(fun ~program:_ ~variant ->
                  if variant = "failover" then
                    List.iteri (fun g _ -> start_prober g) gateways)
                ~signals:
                  (rate_signals
                     (fun () -> sum_clients Http_app.Client.retries)
                     (fun () -> sum_clients Http_app.Client.completed));
            ]
        | Independent ->
            (* One plane per gateway, each watching only its own clients
               — noisier per-node signals, no cross-gateway coordination. *)
            List.mapi
              (fun g gw ->
                let mine read =
                  List.fold_left
                    (fun acc app ->
                      match app with
                      | Some app -> acc + read app
                      | None -> acc)
                    0
                    (List.filteri
                       (fun i _ -> i mod n_gw = g)
                       client_apps)
                in
                arm_plane
                  ~targets:[ Node.addr gw ]
                  ~on_swap:(fun ~program:_ ~variant ->
                    if variant = "failover" then start_prober g)
                  ~signals:
                    (rate_signals
                       (fun () -> mine Http_app.Client.retries)
                       (fun () -> mine Http_app.Client.completed)))
              gateways)
  in
  let adaptation =
    match (config.coordination, adaptation_planes) with
    | Coordinated, plane :: _ -> Some plane
    | Independent, _ | _, [] -> None
  in
  Par.run_until par ~stop:config.duration;
  let completed =
    List.fold_left
      (fun acc app ->
        match app with
        | Some app -> acc + Http_app.Client.completed app
        | None -> acc)
      0 client_apps
  in
  let response_sum, response_n =
    List.fold_left
      (fun (sum, n) app ->
        match app with
        | Some app when Http_app.Client.completed app > 0 ->
            ( sum
              +. Http_app.Client.mean_response_time app
                 *. float_of_int (Http_app.Client.completed app),
              n + Http_app.Client.completed app )
        | Some _ | None -> (sum, n))
      (0.0, 0) client_apps
  in
  let measured = config.duration -. config.warmup in
  (* Aggregate the per-client response-time distributions. *)
  let all_times = Netsim.Summary.create () in
  List.iter
    (fun app ->
      match app with
      | Some app ->
          Netsim.Summary.merge ~into:all_times (Http_app.Client.response_times app)
      | None -> ())
    client_apps;
  let labels =
    [
      ("experiment", "http");
      ("setup", setup_name setup);
      ("workers", string_of_int workers);
    ]
  in
  List.iter
    (fun (name, value) -> Obs.Registry.set (Obs.Registry.gauge ~labels name) value)
    [
      ("asp.summary.replies_per_s", float_of_int completed /. measured);
      ("asp.summary.p95_response_ms",
       Netsim.Summary.percentile all_times 95.0 *. 1000.0);
    ];
  {
    workers;
    replies_per_s = float_of_int completed /. measured;
    mean_response_ms =
      (if response_n = 0 then 0.0
       else response_sum /. float_of_int response_n *. 1000.0);
    p95_response_ms = Netsim.Summary.percentile all_times 95.0 *. 1000.0;
    gateway_requests = read_gateway_requests ();
    server_loads =
      ( Http_app.Server.requests_served server0,
        Http_app.Server.requests_served server1 );
    client_retries = sum_clients Http_app.Client.retries;
    adaptation = Option.map Adapt.Plane.stats adaptation;
    adaptations = List.map Adapt.Plane.stats adaptation_planes;
  }

let run_sweep config setup ~workers_list =
  List.map (fun workers -> run_point config setup ~workers) workers_list
