(* Integration tests: shortened versions of the paper's three experiments,
   asserting the qualitative results the paper reports. Durations are kept
   small; the full-length runs live in bench/main.ml. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------- audio (§3.1, Fig. 6 and 7) ---------- *)

let audio_adaptation_controls_bandwidth () =
  let result = Asp.Audio_experiment.run (Asp.Audio_experiment.quick_config ()) in
  (* Before the load starts the stream runs at CD quality (~178 kB/s);
     under heavy load it must drop to 8-bit mono (~46 kB/s). *)
  let rate_at t =
    let _, rate =
      List.fold_left
        (fun ((best_d, _) as best) (time, rate) ->
          let d = Float.abs (time -. t) in
          if d < best_d then (d, rate) else best)
        (infinity, 0.0) result.Asp.Audio_experiment.series
    in
    rate
  in
  checkb "CD quality before load" true (Float.abs (rate_at 8.0 -. 178.0) < 10.0);
  checkb "8-bit mono under heavy load" true (Float.abs (rate_at 20.0 -. 46.0) < 8.0);
  checkb "16-bit mono under light load" true (Float.abs (rate_at 48.0 -. 90.0) < 10.0);
  check "no silent periods with adaptation" 0
    result.Asp.Audio_experiment.silent_periods;
  check "no drops with adaptation" 0 result.Asp.Audio_experiment.segment_drops;
  check "every frame arrives" result.Asp.Audio_experiment.frames_sent
    result.Asp.Audio_experiment.frames_received;
  let _, m16, m8 = result.Asp.Audio_experiment.wire_quality_counts in
  checkb "degraded frames seen on the wire" true (m16 > 0 && m8 > 0)

let audio_no_adaptation_suffers () =
  let result =
    Asp.Audio_experiment.run (Asp.Audio_experiment.quick_config ~adapt:false ())
  in
  checkb "many silent periods" true
    (result.Asp.Audio_experiment.silent_periods > 50);
  checkb "drops occurred" true (result.Asp.Audio_experiment.segment_drops > 100);
  checkb "frames lost" true
    (result.Asp.Audio_experiment.frames_received
    < result.Asp.Audio_experiment.frames_sent)

let audio_per_segment_adaptation () =
  (* The paper's core argument for in-router adaptation (3.1): "clients on
     different paths in the network can receive different levels of
     quality depending only on the traffic on that path" — impossible for
     end-to-end adaptation, which degrades everyone to the slowest
     segment. Two segments: one congested, one idle; each behind its own
     adapting router. *)
  (* source - r0 (plain branch) - { r1 -> loaded segment, r2 -> idle
     segment }: each adapting router feeds exactly one segment, so its
     decision affects only that path. *)
  let topo = Netsim.Topology.create () in
  let source_node = Netsim.Topology.add_host topo "src" "10.1.0.1" in
  let r0 = Netsim.Topology.add_host topo "r0" "10.1.0.252" in
  let r1 = Netsim.Topology.add_host topo "r1" "10.1.0.254" in
  let r2 = Netsim.Topology.add_host topo "r2" "10.1.0.253" in
  ignore
    (Netsim.Topology.connect topo ~bandwidth_bps:100e6 ~latency:0.0005
       source_node r0);
  ignore
    (Netsim.Topology.connect topo ~bandwidth_bps:100e6 ~latency:0.0005 r0 r1);
  ignore
    (Netsim.Topology.connect topo ~bandwidth_bps:100e6 ~latency:0.0005 r0 r2);
  let seg1 = Netsim.Topology.segment topo ~name:"loaded" ~bandwidth_bps:10e6 () in
  let seg2 = Netsim.Topology.segment topo ~name:"idle" ~bandwidth_bps:10e6 () in
  let r1_if = Netsim.Topology.attach topo seg1 r1 in
  let r2_if = Netsim.Topology.attach topo seg2 r2 in
  let c1 = Netsim.Topology.add_host topo "c1" "10.2.0.1" in
  let c2 = Netsim.Topology.add_host topo "c2" "10.3.0.1" in
  let sink = Netsim.Topology.add_host topo "sink" "10.2.0.99" in
  let lg = Netsim.Topology.add_host topo "lg" "10.2.0.98" in
  ignore (Netsim.Topology.attach topo seg1 c1);
  ignore (Netsim.Topology.attach topo seg1 sink);
  ignore (Netsim.Topology.attach topo seg1 lg);
  ignore (Netsim.Topology.attach topo seg2 c2);
  Netsim.Topology.compute_routes topo;
  (* wire quality observed per segment *)
  let quality_counts segment =
    let s16 = ref 0 and degraded = ref 0 in
    Netsim.Segment.set_tap segment (fun ~at:_ ~l2_dst:_ packet ->
        match packet.Netsim.Packet.l4 with
        | Netsim.Packet.Udp { Netsim.Packet.udp_dst; _ }
          when udp_dst = Asp.Audio_app.audio_port -> (
            match
              Planp_runtime.Audio_frame.Wire.header packet.Netsim.Packet.body
            with
            | Some
                {
                  Planp_runtime.Audio_frame.Wire.quality =
                    Planp_runtime.Audio_frame.Stereo16;
                  _;
                } ->
                incr s16
            | Some _ -> incr degraded
            | None -> ())
        | _ -> ());
    (s16, degraded)
  in
  let s16_1, degraded_1 = quality_counts seg1 in
  let _s16_2, degraded_2 = quality_counts seg2 in
  let client1 = Asp.Audio_app.Client.attach c1 () in
  let client2 = Asp.Audio_app.Client.attach c2 () in
  ignore (Asp.Audio_app.Source.start source_node ~until:20.0 ());
  ignore
    (Asp.Loadgen.start lg ~dst:(Extnet.Node.addr sink)
       ~schedule:[ (2.0, 1150.0) ] ~until:20.0 ());
  List.iter
    (fun (router, iface) ->
      ignore
        (Extnet.load_exn router
           ~source:(Asp.Audio_asp.router_program ~iface ())
           ()))
    [ (r1, r1_if); (r2, r2_if) ];
  List.iter
    (fun client ->
      ignore (Extnet.load_exn client ~source:(Asp.Audio_asp.client_program ()) ()))
    [ c1; c2 ];
  Netsim.Topology.run_until topo ~stop:21.0;
  checkb "loaded segment saw degraded audio" true (!degraded_1 > !s16_1);
  check "idle segment stayed at CD quality" 0 !degraded_2;
  checkb "idle-path client heard everything" true
    (Asp.Audio_app.Client.frames_received client2 >= 995);
  checkb "loaded-path client still heard everything (degraded)" true
    (Asp.Audio_app.Client.frames_received client1 >= 995)

let audio_backend_equivalence () =
  (* The interpreter backend must produce the same adaptation behaviour as
     the JIT (slower in real time, identical in simulated time). *)
  let jit = Asp.Audio_experiment.run (Asp.Audio_experiment.quick_config ()) in
  let interp =
    Asp.Audio_experiment.run
      (Asp.Audio_experiment.quick_config ~backend:Planp_jit.Backends.interp ())
  in
  check "same frames received" jit.Asp.Audio_experiment.frames_received
    interp.Asp.Audio_experiment.frames_received;
  checkb "same wire qualities" true
    (jit.Asp.Audio_experiment.wire_quality_counts
    = interp.Asp.Audio_experiment.wire_quality_counts)

(* ---------- http (§3.2, Fig. 8) ---------- *)

let http_cluster_shape () =
  let config =
    { Asp.Http_experiment.default_config with
      duration = 12.0; warmup = 4.0; client_count = 8; trace_requests = 40_000 }
  in
  let rate setup workers =
    (Asp.Http_experiment.run_point config setup ~workers)
      .Asp.Http_experiment.replies_per_s
  in
  let single = rate Asp.Http_experiment.Single 32 in
  let asp_gw = rate (Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit) 48 in
  let native_gw = rate Asp.Http_experiment.Native_gateway 48 in
  let disjoint = rate Asp.Http_experiment.Disjoint 48 in
  checkb "single server saturates in a plausible band" true
    (single > 400.0 && single < 900.0);
  (* Paper: ASP gateway within measurement noise of built-in C. *)
  checkb "ASP ~ native" true
    (Float.abs (asp_gw -. native_gw) /. native_gw < 0.05);
  (* Paper: 1.75x a single server. *)
  let ratio = asp_gw /. single in
  checkb "cluster gains ~1.75x over single" true (ratio > 1.5 && ratio < 2.0);
  (* Paper: 85% of two servers with disjoint clients. *)
  let share = asp_gw /. disjoint in
  checkb "~85%% of disjoint" true (share > 0.75 && share < 0.98)

let http_gateway_counts_requests () =
  let config =
    { Asp.Http_experiment.default_config with
      duration = 6.0; warmup = 2.0; trace_requests = 5_000 }
  in
  let point =
    Asp.Http_experiment.run_point config
      (Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit) ~workers:8
  in
  let s0, s1 = point.Asp.Http_experiment.server_loads in
  checkb "gateway saw every request" true
    (point.Asp.Http_experiment.gateway_requests >= s0 + s1);
  checkb "balanced" true (abs (s0 - s1) <= 1 + ((s0 + s1) / 10))

let whole_stack_is_deterministic () =
  (* The entire simulation stack must be reproducible run to run: no wall
     clock, no Random, no hashtable-iteration dependence in results. *)
  let run () =
    let r = Asp.Audio_experiment.run (Asp.Audio_experiment.quick_config ()) in
    ( r.Asp.Audio_experiment.series,
      r.Asp.Audio_experiment.wire_quality_counts,
      r.Asp.Audio_experiment.silent_periods )
  in
  let a = run () and b = run () in
  checkb "identical audio runs" true (a = b);
  let http () =
    let config =
      { Asp.Http_experiment.default_config with
        duration = 8.0; warmup = 3.0; trace_requests = 5_000 }
    in
    let p =
      Asp.Http_experiment.run_point config
        (Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit) ~workers:8
    in
    (p.Asp.Http_experiment.replies_per_s, p.Asp.Http_experiment.server_loads)
  in
  checkb "identical http runs" true (http () = http ())

(* ---------- mpeg (§3.3) ---------- *)

let mpeg_single_connection () =
  let result = Asp.Mpeg_experiment.run (Asp.Mpeg_experiment.default_config ()) in
  check "one server connection" 1 result.Asp.Mpeg_experiment.server_streams;
  (match result.Asp.Mpeg_experiment.clients_shared with
  | [ Some false; Some true; Some true ] -> ()
  | _ -> Alcotest.fail "client 1 direct, clients 2 and 3 shared");
  (* every client keeps receiving from its join point *)
  (match result.Asp.Mpeg_experiment.client_frames with
  | [ c1; c2; c3 ] ->
      check "client 1 gets the whole movie" 240 c1;
      checkb "client 2 joins mid-stream" true (c2 > 100 && c2 < 240);
      checkb "client 3 joins later" true (c3 > 50 && c3 < c2)
  | _ -> Alcotest.fail "three clients");
  result.Asp.Mpeg_experiment.segment_video_bytes |> fun shared_bytes ->
  let baseline =
    Asp.Mpeg_experiment.run (Asp.Mpeg_experiment.default_config ~with_asps:false ())
  in
  check "baseline opens three connections" 3
    baseline.Asp.Mpeg_experiment.server_streams;
  checkb "ASPs cut segment video traffic to about a third" true
    (float_of_int shared_bytes
    < 0.45 *. float_of_int baseline.Asp.Mpeg_experiment.segment_video_bytes)

let mpeg_monitor_tracks_connections () =
  (* A lone client gets "no connection" from the monitor and goes direct. *)
  let result =
    Asp.Mpeg_experiment.run
      { (Asp.Mpeg_experiment.default_config ()) with client_starts = [ 0.5 ] }
  in
  check "single client, single stream" 1 result.Asp.Mpeg_experiment.server_streams;
  match result.Asp.Mpeg_experiment.clients_shared with
  | [ Some false ] -> ()
  | _ -> Alcotest.fail "lone client must go direct"

let mpeg_backend_equivalence () =
  let run backend =
    let r = Asp.Mpeg_experiment.run (Asp.Mpeg_experiment.default_config ~backend ()) in
    ( r.Asp.Mpeg_experiment.server_streams,
      r.Asp.Mpeg_experiment.client_frames,
      r.Asp.Mpeg_experiment.clients_shared )
  in
  let jit = run Planp_jit.Backends.jit in
  checkb "interp behaves identically" true (run Planp_jit.Backends.interp = jit);
  checkb "bytecode behaves identically" true
    (run Planp_jit.Backends.bytecode = jit)

let mpeg_teardown_expires_entries () =
  (* The server's TEARDOWN removes the monitor entry: a client arriving
     after the movie finished must open its own connection instead of
     capturing a dead stream. Movie = 48 frames = 2 s; second client at
     t = 6 s. *)
  let result =
    Asp.Mpeg_experiment.run
      { (Asp.Mpeg_experiment.default_config ()) with
        movie_frames = 48; client_starts = [ 0.5; 6.0 ]; duration = 12.0 }
  in
  check "two connections" 2 result.Asp.Mpeg_experiment.server_streams;
  (match result.Asp.Mpeg_experiment.clients_shared with
  | [ Some false; Some false ] -> ()
  | _ -> Alcotest.fail "late client must go direct after teardown");
  match result.Asp.Mpeg_experiment.client_frames with
  | [ c1; c2 ] ->
      check "client 1 full movie" 48 c1;
      check "client 2 full movie too" 48 c2
  | _ -> Alcotest.fail "two clients"

(* ---------- golden parity ---------- *)

(* Bit-exact pinned results for all three experiments, captured from the
   original per-packet binary-heap scheduler before the calendar-queue /
   delivery-ring event core replaced it. Any change that reorders events —
   even among equal-time ties — or perturbs a single float expression on
   the packet path shows up here long before it would surface as a subtly
   different curve in the paper figures. If one of these fails after an
   intentional semantic change, re-capture the constants and say so in the
   commit message. *)

let golden_audio () =
  let r = Asp.Audio_experiment.run (Asp.Audio_experiment.quick_config ()) in
  check "frames sent" 2500 r.Asp.Audio_experiment.frames_sent;
  check "frames received" 2500 r.Asp.Audio_experiment.frames_received;
  check "silent periods" 0 r.Asp.Audio_experiment.silent_periods;
  check "silent frames" 0 r.Asp.Audio_experiment.silent_frames;
  check "segment drops" 0 r.Asp.Audio_experiment.segment_drops;
  let s16, m16, m8 = r.Asp.Audio_experiment.wire_quality_counts in
  check "stereo16 frames on the wire" 534 s16;
  check "mono16 frames on the wire" 1140 m16;
  check "mono8 frames on the wire" 826 m8

let golden_http () =
  let config =
    { Asp.Http_experiment.default_config with
      duration = 8.0; warmup = 3.0; trace_requests = 5_000 }
  in
  let p =
    Asp.Http_experiment.run_point config
      (Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit) ~workers:8
  in
  Alcotest.(check (float 0.0))
    "replies/s (exact)" 282.80000000000001 p.Asp.Http_experiment.replies_per_s;
  let s0, s1 = p.Asp.Http_experiment.server_loads in
  check "server 0 load" 1151 s0;
  check "server 1 load" 1153 s1;
  check "gateway requests" 2311 p.Asp.Http_experiment.gateway_requests

let golden_mpeg () =
  let r = Asp.Mpeg_experiment.run (Asp.Mpeg_experiment.default_config ()) in
  check "server streams" 1 r.Asp.Mpeg_experiment.server_streams;
  check "server frames sent" 240 r.Asp.Mpeg_experiment.server_frames_sent;
  Alcotest.(check (list int))
    "client frames" [ 240; 181; 109 ] r.Asp.Mpeg_experiment.client_frames;
  (match r.Asp.Mpeg_experiment.clients_shared with
  | [ Some false; Some true; Some true ] -> ()
  | _ -> Alcotest.fail "sharing pattern changed");
  check "segment video bytes" 776000 r.Asp.Mpeg_experiment.segment_video_bytes

(* ---------- in-band deployment parity ---------- *)

(* The acceptance bar for the deployment plane: each experiment run with
   its ASPs shipped in-band over the simulated network must report the
   same summary as with them preinstalled. Deployment finishes within
   milliseconds, before any congestion phase. *)

let audio_in_band_parity () =
  let run deploy =
    let r =
      Asp.Audio_experiment.run (Asp.Audio_experiment.quick_config ~deploy ())
    in
    ( r.Asp.Audio_experiment.frames_sent,
      r.Asp.Audio_experiment.frames_received,
      r.Asp.Audio_experiment.silent_periods,
      r.Asp.Audio_experiment.silent_frames,
      r.Asp.Audio_experiment.segment_drops,
      r.Asp.Audio_experiment.wire_quality_counts )
  in
  checkb "in-band audio summary matches preinstalled" true
    (run Asp.Deploy_mode.In_band = run Asp.Deploy_mode.Preinstalled)

let http_in_band_parity () =
  let point deploy =
    let config =
      { Asp.Http_experiment.default_config with
        duration = 8.0; warmup = 3.0; trace_requests = 5_000; deploy }
    in
    Asp.Http_experiment.run_point config
      (Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit) ~workers:8
  in
  let pre = point Asp.Deploy_mode.Preinstalled in
  let inband = point Asp.Deploy_mode.In_band in
  (* Throughput is measured after warmup; the handful of requests retried
     while the gateway ASP was still in flight land well inside it. *)
  checkb "replies/s within 2%" true
    (Float.abs
       (inband.Asp.Http_experiment.replies_per_s
       -. pre.Asp.Http_experiment.replies_per_s)
     /. pre.Asp.Http_experiment.replies_per_s
    < 0.02);
  let s0, s1 = inband.Asp.Http_experiment.server_loads in
  checkb "gateway saw every request" true
    (inband.Asp.Http_experiment.gateway_requests >= s0 + s1);
  checkb "balanced" true (abs (s0 - s1) <= 1 + ((s0 + s1) / 10))

let mpeg_in_band_parity () =
  let run deploy =
    let r =
      Asp.Mpeg_experiment.run (Asp.Mpeg_experiment.default_config ~deploy ())
    in
    ( r.Asp.Mpeg_experiment.server_streams,
      r.Asp.Mpeg_experiment.server_frames_sent,
      r.Asp.Mpeg_experiment.client_frames,
      r.Asp.Mpeg_experiment.clients_shared )
  in
  checkb "in-band mpeg summary matches preinstalled" true
    (run Asp.Deploy_mode.In_band = run Asp.Deploy_mode.Preinstalled)

let () =
  Alcotest.run "experiments"
    [
      ( "audio",
        [
          Alcotest.test_case "adaptation controls bandwidth" `Slow
            audio_adaptation_controls_bandwidth;
          Alcotest.test_case "no adaptation suffers" `Slow
            audio_no_adaptation_suffers;
          Alcotest.test_case "per-segment adaptation" `Slow
            audio_per_segment_adaptation;
          Alcotest.test_case "backend equivalence" `Slow audio_backend_equivalence;
        ] );
      ( "http",
        [
          Alcotest.test_case "cluster shape (Fig. 8)" `Slow http_cluster_shape;
          Alcotest.test_case "gateway counts requests" `Slow
            http_gateway_counts_requests;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "whole stack" `Slow whole_stack_is_deterministic;
        ] );
      ( "golden parity",
        [
          Alcotest.test_case "audio" `Slow golden_audio;
          Alcotest.test_case "http" `Slow golden_http;
          Alcotest.test_case "mpeg" `Slow golden_mpeg;
        ] );
      ( "in-band deployment",
        [
          Alcotest.test_case "audio parity" `Slow audio_in_band_parity;
          Alcotest.test_case "http parity" `Slow http_in_band_parity;
          Alcotest.test_case "mpeg parity" `Slow mpeg_in_band_parity;
        ] );
      ( "mpeg",
        [
          Alcotest.test_case "single connection" `Slow mpeg_single_connection;
          Alcotest.test_case "monitor tracks connections" `Slow
            mpeg_monitor_tracks_connections;
          Alcotest.test_case "teardown expires entries" `Slow
            mpeg_teardown_expires_entries;
          Alcotest.test_case "backend equivalence" `Slow mpeg_backend_equivalence;
        ] );
    ]
