module Topology = Netsim.Topology
module Node = Netsim.Node
module Par = Netsim.Par_engine
module Runtime = Planp_runtime.Runtime

type config = {
  with_asps : bool;
  backend : Planp_runtime.Backend.t;
  movie_frames : int;
  client_starts : float list;
  duration : float;
  deploy : Deploy_mode.t;
  faults : Netsim.Faults.scenario option;
  adaptation : Adapt.Policy.t option;
  filters : int;
}

let default_config ?(with_asps = true) ?(backend = Planp_jit.Backends.jit)
    ?(deploy = Deploy_mode.Preinstalled) ?faults ?adaptation ?(filters = 1) () =
  {
    with_asps;
    backend;
    movie_frames = 240;
    client_starts = [ 0.5; 3.0; 6.0 ];
    duration = 20.0;
    deploy;
    faults;
    adaptation;
    filters;
  }

(* The canned closed-loop policy: when the client segment starts dropping
   frames, swap the router filter to the B-frame-shedding variant so the
   I- and P-frames survive (every B-frame shed frees segment capacity);
   probe back to pass-through once drops stay quiet. The guard watches
   I+P delivery, which degrading must not regress. *)
let adaptive_policy () =
  match
    Adapt.Policy.parse
      {|period 0.5
alpha 0.4
rule degrade: when loss_rate > 5 for 0.5 cooldown 6 do swap mpeg-filter degrade
rule recover: when loss_rate < 0.5 for 8 cooldown 12 do swap mpeg-filter pass
guard ip_goodput window 4 min-ratio 0.5
|}
  with
  | Ok policy -> policy
  | Error msg -> failwith ("Mpeg_experiment.adaptive_policy: " ^ msg)

type result = {
  server_streams : int;
  server_frames_sent : int;
  client_frames : int list;
  client_frame_kinds : (int * int * int) list;
  clients_shared : bool option list;
  segment_video_bytes : int;
  adaptation : Adapt.Plane.stats option;
}

let server_addr_string = "10.6.0.1"
let movie_file = 7

let run config =
  if config.filters < 1 then invalid_arg "Mpeg_experiment: filters must be >= 1";
  let topo = Topology.create () in
  let server_node = Topology.add_host topo "video-server" server_addr_string in
  (* One filter router keeps the classic names and addresses (byte
     identical to the pre-fleet experiment); [filters >= 2] chains relay
     routers all running the frame filter, so a degrade/recover swap must
     reach every hop through one staged rollout. *)
  let routers =
    if config.filters = 1 then [ Topology.add_host topo "router" "10.6.0.254" ]
    else
      List.init config.filters (fun i ->
          Topology.add_host topo
            (Printf.sprintf "router%d" i)
            (Printf.sprintf "10.6.%d.254" i))
  in
  let monitor_node = Topology.add_host topo "monitor" "10.7.0.50" in
  ignore
    (Topology.connect topo ~name:"backbone" ~bandwidth_bps:100e6
       ~latency:0.0005 server_node (List.hd routers));
  (* Relay hops run at backbone speed so the shared client segment stays
     the only congestion point. *)
  List.iteri
    (fun i r ->
      if i > 0 then
        ignore
          (Topology.connect topo
             ~name:(Printf.sprintf "relay%d" (i - 1))
             ~bandwidth_bps:100e6 ~latency:0.0005
             (List.nth routers (i - 1))
             r))
    routers;
  let segment =
    Topology.segment topo ~name:"client-segment" ~bandwidth_bps:10e6
      ~latency:0.0005 ()
  in
  ignore (Topology.attach topo segment (List.nth routers (config.filters - 1)));
  ignore (Topology.attach topo segment monitor_node);
  let client_nodes =
    List.mapi
      (fun i _ ->
        let node =
          Topology.add_host topo
            (Printf.sprintf "client%d" (i + 1))
            (Printf.sprintf "10.7.0.%d" (10 + i))
        in
        ignore (Topology.attach topo segment node);
        node)
      config.client_starts
  in
  Topology.compute_routes topo;
  (* Names resolvable by fault scenarios: "backbone", "client-segment",
     and every node name above. *)
  Option.iter
    (fun scenario -> ignore (Netsim.Faults.arm topo scenario))
    config.faults;
  (* Count video payload bytes the shared segment carries. *)
  let video_bytes = ref 0 in
  Netsim.Segment.set_tap segment (fun ~at:_ ~l2_dst:_ packet ->
      match packet.Netsim.Packet.l4 with
      | Netsim.Packet.Udp _
        when Netsim.Payload.length packet.Netsim.Packet.body >= 9
             && Netsim.Payload.get_u32 packet.Netsim.Packet.body 0 = movie_file
        ->
          video_bytes := !video_bytes + Netsim.Payload.length packet.Netsim.Packet.body
      | Netsim.Packet.Udp _ | Netsim.Packet.Tcp _ | Netsim.Packet.Raw -> ());
  let server = Mpeg_app.Server.start server_node ~movie_frames:config.movie_frames () in
  let adaptive =
    match config.adaptation with
    | Some policy -> not (Adapt.Policy.is_empty policy)
    | None -> false
  in
  let plane = ref None in
  if config.with_asps then begin
    Node.set_promiscuous monitor_node true;
    List.iter (fun node -> Node.set_promiscuous node true) client_nodes;
    (* In_band ships the monitor ASP point-to-point and the identical
       capture ASPs to the three clients as one staged rollout, all from
       the video server; the transfers finish milliseconds into the run,
       before the first client asks for the movie at 0.5 s. When a
       non-empty adaptation policy is armed, the router also gets the
       pass-through frame filter (and so a daemon for later swaps). *)
    let programs =
      (monitor_node, "mpeg-monitor",
       Mpeg_asp.monitor_program ~server:server_addr_string ())
      :: List.map
           (fun node -> (node, "mpeg-capture", Mpeg_asp.capture_program ()))
           client_nodes
    in
    let programs =
      if adaptive then
        List.map
          (fun r -> (r, "mpeg-filter", Mpeg_asp.filter_program ~drop_b:false ()))
          routers
        @ programs
      else programs
    in
    plane :=
      Some
        (Deploy_mode.install config.deploy ~backend:config.backend
           ~controller:server_node ~programs ())
  end;
  let clients =
    List.map2
      (fun node at ->
        Mpeg_app.Client.start node
          ~server:(Node.addr server_node)
          ~monitor:(Node.addr monitor_node)
          ~file:movie_file ~at ())
      client_nodes config.client_starts
  in
  let ip_frames () =
    List.fold_left
      (fun acc client ->
        let i, p, _ = Mpeg_app.Client.frames_by_kind client in
        acc + i + p)
      0 clients
  in
  let par = Result.get_ok (Par.of_topology topo ~domains:1) in
  let adaptation =
    match config.adaptation with
    | None -> None
    | Some policy when Adapt.Policy.is_empty policy ->
        (* Arms nothing; bit-identical to [adaptation = None]. *)
        Some (Adapt.Plane.arm ~par ~until:config.duration ~signals:[] policy)
    | Some policy ->
        let ctl =
          match Option.bind !plane Deploy_mode.controller with
          | Some ctl -> ctl
          | None ->
              invalid_arg
                "Mpeg_experiment: adaptation needs with_asps = true and \
                 deploy = In_band (hot-swaps ride the deploy daemons)"
        in
        let env =
          {
            Adapt.Plane.de_controller = ctl;
            de_backend = config.backend.Planp_runtime.Backend.backend_name;
            de_targets_of =
              (fun program ->
                if program = "mpeg-filter" then List.map Node.addr routers
                else []);
            de_variant_of =
              (fun ~program ~variant ->
                if program <> "mpeg-filter" then None
                else
                  match variant with
                  | "pass" ->
                      Some
                        {
                          Adapt.Plane.v_source =
                            Mpeg_asp.filter_program ~drop_b:false ();
                          v_authenticated = false;
                        }
                  | "degrade" ->
                      (* Sheds packets on purpose: rides the privileged
                         path past the delivery verifier. *)
                      Some
                        {
                          Adapt.Plane.v_source =
                            Mpeg_asp.filter_program ~drop_b:true ();
                          v_authenticated = true;
                        }
                  | _ -> None);
            de_concurrency = 2;
          }
        in
        Some
          (Adapt.Plane.arm ~env
             ~active:[ ("mpeg-filter", "pass") ]
             ~par ~until:config.duration
             ~signals:
               [
                 ( "loss_rate",
                   Adapt.Monitor.Counter_rate
                     (Obs.Registry.counter
                        ~labels:[ ("segment", "client-segment") ]
                        "netsim.segment.drops") );
                 ( "ip_goodput",
                   Adapt.Monitor.Rate_of
                     (fun () -> float_of_int (ip_frames ())) );
               ]
             policy)
  in
  Par.run_until par ~stop:config.duration;
  let labels = [ ("experiment", "mpeg") ] in
  List.iter
    (fun (name, value) ->
      Obs.Registry.set (Obs.Registry.gauge ~labels name) (float_of_int value))
    [
      ("asp.summary.server_streams", Mpeg_app.Server.streams_opened server);
      ("asp.summary.server_frames_sent", Mpeg_app.Server.frames_sent server);
      ("asp.summary.segment_video_bytes", !video_bytes);
    ];
  {
    server_streams = Mpeg_app.Server.streams_opened server;
    server_frames_sent = Mpeg_app.Server.frames_sent server;
    client_frames = List.map Mpeg_app.Client.frames_received clients;
    client_frame_kinds = List.map Mpeg_app.Client.frames_by_kind clients;
    clients_shared = List.map Mpeg_app.Client.used_existing clients;
    segment_video_bytes = !video_bytes;
    adaptation = Option.map Adapt.Plane.stats adaptation;
  }
