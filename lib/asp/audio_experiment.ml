module Topology = Netsim.Topology
module Node = Netsim.Node
module Par = Netsim.Par_engine
module Runtime = Planp_runtime.Runtime
module Audio_frame = Planp_runtime.Audio_frame

type config = {
  duration : float;
  adapt : bool;
  schedule : (float * float) list;
  backend : Planp_runtime.Backend.t;
  policy : Audio_asp.policy;
  sample_period : float;
  deploy : Deploy_mode.t;
  faults : Netsim.Faults.scenario option;
  adaptation : Adapt.Policy.t option;
  routers : int;
}

let fig6_config ?(adapt = true) ?(backend = Planp_jit.Backends.jit)
    ?(deploy = Deploy_mode.Preinstalled) ?faults ?adaptation ?(routers = 1) () =
  {
    duration = 500.0;
    adapt;
    (* Loads in kB/s on the 1250 kB/s segment; chosen so the equilibria
       reproduce the paper's Fig. 6: heavy -> stable 8-bit mono, medium ->
       oscillates between 8- and 16-bit mono, light -> stable 16-bit mono. *)
    schedule = [ (0.0, 0.0); (100.0, 1150.0); (220.0, 1050.0); (340.0, 900.0) ];
    backend;
    policy = Audio_asp.default_policy;
    sample_period = 2.0;
    deploy;
    faults;
    adaptation;
    routers;
  }

let quick_config ?(adapt = true) ?(backend = Planp_jit.Backends.jit)
    ?(deploy = Deploy_mode.Preinstalled) ?faults ?adaptation ?(routers = 1) () =
  {
    duration = 50.0;
    adapt;
    schedule = [ (0.0, 0.0); (10.0, 1150.0); (22.0, 1050.0); (34.0, 900.0) ];
    backend;
    policy = Audio_asp.default_policy;
    sample_period = 1.0;
    deploy;
    faults;
    adaptation;
    routers;
  }

(* The canned closed-loop policy: swap the router ASP to the conservative
   variant when the client segment starts dropping frames (a capacity
   fault the static thresholds cannot see), probe back to the default
   thresholds once drops stay quiet, and guard every swap with the
   delivered-frame rate. Long recover hold + cooldown bound the ping-pong
   while a congestion window is still open. *)
let adaptive_policy () =
  match
    Adapt.Policy.parse
      {|period 0.5
alpha 0.4
rule degrade: when drop_rate > 5 for 0.5 cooldown 6 do swap audio-router conservative
rule recover: when drop_rate < 0.5 for 8 cooldown 12 do swap audio-router default
guard goodput window 4 min-ratio 0.5
|}
  with
  | Ok policy -> policy
  | Error msg -> failwith ("Audio_experiment.adaptive_policy: " ^ msg)

type result = {
  series : (float * float) list;
  frames_sent : int;
  frames_received : int;
  wire_quality_counts : int * int * int;
  silent_periods : int;
  silent_frames : int;
  segment_drops : int;
  adaptation : Adapt.Plane.stats option;
}

(* Passive wire measurement on the client segment: count only frames of the
   audio flow, read their quality from the frame header — how Fig. 6's
   "bandwidth used by the audio traffic" was measured. *)
type wire_monitor = {
  wire_stat : Netsim.Flowstat.t;
  mutable wq_stereo16 : int;
  mutable wq_mono16 : int;
  mutable wq_mono8 : int;
}

let attach_wire_monitor segment =
  let mon =
    { wire_stat = Netsim.Flowstat.create (); wq_stereo16 = 0; wq_mono16 = 0;
      wq_mono8 = 0 }
  in
  Netsim.Segment.set_tap segment (fun ~at ~l2_dst:_ packet ->
      match packet.Netsim.Packet.l4 with
      | Netsim.Packet.Udp { Netsim.Packet.udp_dst; _ }
        when udp_dst = Audio_app.audio_port -> (
          Netsim.Flowstat.record mon.wire_stat ~now:at
            (Netsim.Packet.wire_size packet);
          match Audio_frame.Wire.header packet.Netsim.Packet.body with
          | Some { Audio_frame.Wire.quality; _ } -> (
              match quality with
              | Audio_frame.Stereo16 -> mon.wq_stereo16 <- mon.wq_stereo16 + 1
              | Audio_frame.Mono16 -> mon.wq_mono16 <- mon.wq_mono16 + 1
              | Audio_frame.Mono8 -> mon.wq_mono8 <- mon.wq_mono8 + 1)
          | None -> ())
      | Netsim.Packet.Udp _ | Netsim.Packet.Tcp _ | Netsim.Packet.Raw -> ());
  mon

let run config =
  if config.routers < 1 then
    invalid_arg "Audio_experiment: routers must be >= 1";
  let topo = Topology.create () in
  let server = Topology.add_host topo "audio-server" "10.1.0.1" in
  (* One router keeps the classic Fig. 5 names and addresses (byte
     identical to the pre-fleet experiment); [routers >= 2] chains
     relay routers server - router0 - .. - router(n-1) - segment, all
     running the same distillation ASP so a retune must reach every hop
     through one staged rollout. *)
  let routers =
    if config.routers = 1 then [ Topology.add_host topo "router" "10.1.0.254" ]
    else
      List.init config.routers (fun i ->
          Topology.add_host topo
            (Printf.sprintf "router%d" i)
            (Printf.sprintf "10.1.%d.254" i))
  in
  let client = Topology.add_host topo "client" "10.2.0.10" in
  let sink = Topology.add_host topo "load-sink" "10.2.0.99" in
  let loadgen_node = Topology.add_host topo "load-generator" "10.2.0.98" in
  ignore
    (Topology.connect topo ~name:"backbone" ~bandwidth_bps:100e6
       ~latency:0.0005 server (List.hd routers));
  (* Relay hops run at backbone speed so the shared client segment stays
     the only congestion point, as in the paper's Fig. 5. *)
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
  (* Every chain router sees its upstream hop first, so the downstream
     interface index is the same (1) fleet-wide — one program source,
     compiled against that index, is valid on every router. *)
  let router_seg_iface =
    Topology.attach topo segment (List.nth routers (config.routers - 1))
  in
  ignore (Topology.attach topo segment client);
  ignore (Topology.attach topo segment sink);
  ignore (Topology.attach topo segment loadgen_node);
  Topology.compute_routes topo;
  (* Names resolvable by fault scenarios: "backbone", "client-segment",
     and every node name above. *)
  Option.iter
    (fun scenario -> ignore (Netsim.Faults.arm topo scenario))
    config.faults;
  let wire = attach_wire_monitor segment in
  let wire_series =
    Netsim.Flowstat.Series.attach (Topology.engine topo) wire.wire_stat
      ~period:config.sample_period ~until:config.duration
  in
  (* The receiver must be a group member before the source starts. *)
  let audio_client = Audio_app.Client.attach client () in
  let source = Audio_app.Source.start server ~until:config.duration () in
  ignore
    (Loadgen.start loadgen_node ~dst:(Node.addr sink) ~schedule:config.schedule
       ~until:config.duration ());
  let plane =
    if config.adapt then
      (* Preinstalled puts the ASPs straight into the runtimes; In_band
         ships them from the audio server over the same links the audio
         will use (the transfer completes milliseconds into the run, well
         before the first congestion phase). *)
      Some
        (Deploy_mode.install config.deploy ~backend:config.backend
           ~controller:server
           ~programs:
             (List.map
                (fun r ->
                  ( r,
                    "audio-router",
                    Audio_asp.router_program ~policy:config.policy
                      ~iface:router_seg_iface () ))
                routers
             @ [ (client, "audio-client", Audio_asp.client_program ()) ])
           ())
    else None
  in
  (* The one-partition driver: the run goes through it and the
     adaptation monitor ticks as its pacer. *)
  let par = Result.get_ok (Par.of_topology topo ~domains:1) in
  let adaptation =
    match config.adaptation with
    | None -> None
    | Some policy when Adapt.Policy.is_empty policy ->
        (* Arms nothing; bit-identical to [adaptation = None] (pinned by
           the golden-parity test). *)
        Some (Adapt.Plane.arm ~par ~until:config.duration ~signals:[] policy)
    | Some policy ->
        let ctl =
          match Option.bind plane Deploy_mode.controller with
          | Some ctl -> ctl
          | None ->
              invalid_arg
                "Audio_experiment: adaptation needs adapt = true and deploy \
                 = In_band (hot-swaps ride the deploy daemons)"
        in
        (* [tuned] carries retuned distillation thresholds; [Retune]
           actions adjust it and hot-swap the router ASP so the change
           takes effect mid-run, and later "default" swaps keep it. *)
        let tuned = ref config.policy in
        let variant_policy = function
          | "default" -> Some !tuned
          | "conservative" -> Some Audio_asp.conservative_policy
          | _ -> None
        in
        let backend_name = config.backend.Planp_runtime.Backend.backend_name in
        let router_addrs = List.map Node.addr routers in
        let on_retune ~param ~value =
          (match param with
          | "mono16_above" ->
              tuned := { !tuned with Audio_asp.mono16_above = int_of_float value }
          | "mono8_above" ->
              tuned := { !tuned with Audio_asp.mono8_above = int_of_float value }
          | _ -> ());
          let source =
            Audio_asp.router_program ~policy:!tuned ~iface:router_seg_iface ()
          in
          (* The retuned thresholds must land on every chain hop, or
             the strictest remaining router keeps distilling. *)
          Deploy.Controller.rollout ctl ~backend:backend_name ~concurrency:2
            ~on_nak:Deploy.Controller.Abort ~targets:router_addrs
            ~name:"audio-router" ~source
            ~on_done:(fun _ -> ())
            ()
        in
        let env =
          {
            Adapt.Plane.de_controller = ctl;
            de_backend = backend_name;
            de_targets_of =
              (fun program ->
                if program = "audio-router" then router_addrs else []);
            de_variant_of =
              (fun ~program ~variant ->
                if program <> "audio-router" then None
                else
                  Option.map
                    (fun policy ->
                      {
                        Adapt.Plane.v_source =
                          Audio_asp.router_program ~policy
                            ~iface:router_seg_iface ();
                        v_authenticated = false;
                      })
                    (variant_policy variant));
            de_concurrency = 2;
          }
        in
        Some
          (Adapt.Plane.arm ~env ~on_retune
             ~active:[ ("audio-router", "default") ]
             ~par ~until:config.duration
             ~signals:
               [
                 ( "drop_rate",
                   Adapt.Monitor.Counter_rate
                     (Obs.Registry.counter
                        ~labels:[ ("segment", "client-segment") ]
                        "netsim.segment.drops") );
                 ( "goodput",
                   Adapt.Monitor.Rate_of
                     (fun () ->
                       float_of_int
                         (Audio_app.Client.frames_received audio_client)) );
               ]
             policy)
  in
  (* Run slightly past the end so frames in flight at [duration] land. *)
  Par.run_until par ~stop:(config.duration +. 0.5);
  let frames_sent = Audio_app.Source.frames_sent source in
  let silent_periods, silent_frames =
    Audio_app.Client.silent_periods audio_client ~frames_expected:frames_sent
  in
  let labels = [ ("experiment", "audio") ] in
  List.iter
    (fun (name, value) ->
      Obs.Registry.set (Obs.Registry.gauge ~labels name) (float_of_int value))
    [
      ("asp.summary.frames_sent", frames_sent);
      ("asp.summary.frames_received",
       Audio_app.Client.frames_received audio_client);
      ("asp.summary.silent_periods", silent_periods);
      ("asp.summary.silent_frames", silent_frames);
      ("asp.summary.segment_drops", Netsim.Segment.drops segment);
    ];
  {
    series =
      List.map
        (fun (time, bps) -> (time, bps /. 8.0 /. 1000.0))
        (Netsim.Flowstat.Series.points wire_series);
    frames_sent;
    frames_received = Audio_app.Client.frames_received audio_client;
    wire_quality_counts = (wire.wq_stereo16, wire.wq_mono16, wire.wq_mono8);
    silent_periods;
    silent_frames;
    segment_drops = Netsim.Segment.drops segment;
    adaptation = Option.map Adapt.Plane.stats adaptation;
  }
