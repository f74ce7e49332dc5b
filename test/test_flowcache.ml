(* The flow-keyed decision cache (Planp_runtime.Flowcache) and its
   static analysis (Planp_analysis.Cacheability): verdicts on the
   bundled ASPs, replay correctness through a real runtime, the three
   invalidation sources (epoch, table generation, route recomputation),
   byte-identical exports cache-on vs cache-off — sequentially, across
   the paper experiments and under a 4-domain partitioned run — and the
   domain-safety of the backends' profiling counters. *)

module Q = QCheck
module Ast = Planp.Ast
module Cacheability = Planp_analysis.Cacheability
module Cache = Planp_runtime.Flowcache
module Runtime = Planp_runtime.Runtime
module Interp = Planp_runtime.Interp
module Value = Planp_runtime.Value
module Backend = Planp_runtime.Backend
module Topology = Netsim.Topology
module Node = Netsim.Node
module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Payload = Netsim.Payload
module Registry = Obs.Registry

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let checked source =
  Planp_runtime.Prims.install ();
  match Extnet.check_source source with
  | Ok checked -> checked
  | Error message -> Alcotest.fail message

let verdicts source =
  Cacheability.analyze ~classify:Cache.classify
    (checked source).Planp.Typecheck.program

let globals_of chk =
  let world, _, _ = Planp_runtime.World.dummy () in
  List.fold_left
    (fun globals decl ->
      match decl with
      | Ast.Dval ({ Ast.bind_name; bind_expr; _ }, _) ->
          globals @ [ (bind_name, Interp.eval_const ~world ~globals bind_expr) ]
      | _ -> globals)
    [] chk.Planp.Typecheck.program

let is_cacheable = function
  | Cacheability.Cacheable _ -> true
  | Cacheability.Uncacheable _ -> false

let metrics () = Registry.to_json_string Registry.default
let reset () = Registry.reset Registry.default

(* ------------------------------------------------------------------ *)
(* Analysis verdicts on the bundled ASPs                               *)
(* ------------------------------------------------------------------ *)

let verdicts_bundled () =
  (* The shedding MPEG filter: one condition, no sites on the drop
     branch, a counting protocol state — the canonical cacheable ASP. *)
  (match verdicts (Asp.Mpeg_asp.filter_program ~drop_b:true ()) with
  | [ (_, Cacheability.Cacheable d) ] ->
      checkb "filter counts ps" true d.Cacheability.ps_int_delta;
      checkb "filter reads no tables" false d.Cacheability.reads_tables
  | [ (_, Cacheability.Uncacheable reason) ] ->
      Alcotest.fail ("filter uncacheable: " ^ reason)
  | _ -> Alcotest.fail "filter: one channel expected");
  (* Pass-through variant: unconditional forward. *)
  checkb "filter pass-through cacheable" true
    (List.for_all
       (fun (_, v) -> is_cacheable v)
       (verdicts (Asp.Mpeg_asp.filter_program ~drop_b:false ())));
  (* The audio client only delivers; its restoration site may raise but
     the handler's fallback is a site too. *)
  checkb "audio client cacheable" true
    (List.for_all
       (fun (_, v) -> is_cacheable v)
       (verdicts (Asp.Audio_asp.client_program ())));
  (* The audio router consults linkLoad: load-dependent decisions must
     never be frozen into a cache entry. *)
  checkb "audio router uncacheable" true
    (List.for_all
       (fun (_, v) -> not (is_cacheable v))
       (verdicts (Asp.Audio_asp.router_program ~iface:1 ())));
  (* The HTTP gateway writes its affinity table. *)
  checkb "http gateway uncacheable" true
    (List.for_all
       (fun (_, v) -> not (is_cacheable v))
       (verdicts
          (Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
             ~servers:("10.3.0.1", "10.3.0.2") ())));
  (* The MPEG monitor: control channels write the connection table
     (uncacheable); the mquery channel only reads it. *)
  let monitor = verdicts (Asp.Mpeg_asp.monitor_program ~server:"10.6.0.1" ()) in
  List.iter
    (fun (chan, verdict) ->
      if String.equal chan.Ast.chan_name "mquery" then (
        match verdict with
        | Cacheability.Cacheable d ->
            checkb "mquery reads tables" true d.Cacheability.reads_tables
        | Cacheability.Uncacheable reason ->
            Alcotest.fail ("mquery uncacheable: " ^ reason))
      else checkb "monitor control uncacheable" false (is_cacheable verdict))
    monitor

(* ------------------------------------------------------------------ *)
(* Runtime harness                                                     *)
(* ------------------------------------------------------------------ *)

let make_rt ?(name = "fc") ?(addr = "10.50.0.1") () =
  let engine = Engine.create () in
  let node = Node.create engine ~name ~addr:(Netsim.Addr.of_string addr) in
  ignore (Node.add_iface node ~name:"if0" (fun ~l2_dst:_ _ -> true));
  Runtime.attach node

let cache_count ?(node = "fc") name =
  Option.value ~default:0
    (Registry.read_counter ~labels:[ ("node", node); ("chan", "network") ] name)

let b_frame ?(src = "10.6.0.1") () =
  let body = Bytes.make 16 '\000' in
  Bytes.set body 8 '\002';
  Packet.udp
    ~src:(Netsim.Addr.of_string src)
    ~dst:(Netsim.Addr.of_string "10.6.0.9")
    ~src_port:554 ~dst_port:7101 (Payload.of_bytes body)

let i_frame () =
  let body = Bytes.make 16 '\000' in
  Bytes.set body 8 '\001';
  Packet.udp
    ~src:(Netsim.Addr.of_string "10.6.0.1")
    ~dst:(Netsim.Addr.of_string "10.6.0.9")
    ~src_port:554 ~dst_port:7101 (Payload.of_bytes body)

(* ------------------------------------------------------------------ *)
(* Replay correctness                                                  *)
(* ------------------------------------------------------------------ *)

let replay_drop_and_count () =
  reset ();
  let rt = make_rt () in
  let program =
    Runtime.install_exn rt
      ~source:(Asp.Mpeg_asp.filter_program ~drop_b:true ())
      ()
  in
  let hits0 = cache_count "runtime.cache.hits" in
  for _ = 1 to 5 do
    Runtime.inject rt (b_frame ())
  done;
  check "five handled" 5 (Runtime.stats rt).Runtime.handled;
  check "five sheds counted"
    (match Runtime.proto_state program with Value.Vint n -> n | _ -> -1)
    5;
  check "four replays" 4 (cache_count "runtime.cache.hits" - hits0);
  (* A different flow key (new src) misses once, then replays. *)
  Runtime.inject rt (b_frame ~src:"10.6.0.2" ());
  Runtime.inject rt (b_frame ~src:"10.6.0.2" ());
  check "second flow replays too" 5 (cache_count "runtime.cache.hits" - hits0);
  (* The non-B frame takes the forwarding branch: distinct decision,
     handled either way. *)
  Runtime.inject rt (i_frame ());
  check "eight handled" 8 (Runtime.stats rt).Runtime.handled

let replay_deliver () =
  reset ();
  let rt = make_rt () in
  let node = Runtime.node rt in
  let delivered = ref 0 in
  Node.on_udp node ~port:Asp.Audio_app.audio_port (fun _ _ -> incr delivered);
  ignore (Runtime.install_exn rt ~source:(Asp.Audio_asp.client_program ()) ());
  let degraded =
    Packet.udp
      ~src:(Netsim.Addr.of_string "10.1.0.7")
      ~dst:(Node.addr node)
      ~src_port:Asp.Audio_app.audio_port ~dst_port:Asp.Audio_app.audio_port
      (Option.get
         (Planp_runtime.Audio_frame.Wire.degrade
            (Planp_runtime.Audio_frame.Wire.synth ~seq:0 ~frames:20 ~phase:0)
            Planp_runtime.Audio_frame.Mono8))
  in
  for _ = 1 to 4 do
    Runtime.inject rt degraded
  done;
  check "every frame delivered" 4 !delivered;
  checkb "replays happened" true (cache_count "runtime.cache.hits" > 0)

let replay_error () =
  reset ();
  let rt = make_rt () in
  let source =
    {|channel network(ps : int, ss : unit, p : ip*udp*blob) is
  let val x : int = 100 / udpDst(#2 p) in ((ps + x), ss) end
|}
  in
  let program = Runtime.install_exn rt ~source () in
  let pkt port =
    Packet.udp
      ~src:(Netsim.Addr.of_string "10.50.0.2")
      ~dst:(Netsim.Addr.of_string "10.50.0.1")
      ~src_port:7 ~dst_port:port (Payload.of_string "x")
  in
  for _ = 1 to 3 do
    Runtime.inject rt (pkt 4)
  done;
  check "delta replayed" 75
    (match Runtime.proto_state program with Value.Vint n -> n | _ -> -1);
  for _ = 1 to 3 do
    Runtime.inject rt (pkt 0)
  done;
  check "division errors counted" 3 (Runtime.stats rt).Runtime.errors;
  check "errors left ps alone" 75
    (match Runtime.proto_state program with Value.Vint n -> n | _ -> -1);
  checkb "error decisions replay too" true (cache_count "runtime.cache.hits" >= 3)

let table_generation_invalidates () =
  reset ();
  let rt = make_rt () in
  let source =
    {|val seeds : (int, int) hash_table = mkTable(8)

channel network(ps : int, ss : unit, p : ip*udp*blob) is
  ((ps + tblGet(seeds, udpDst(#2 p), 7)), ss)

channel mut(ps : int, ss : unit, p : ip*udp*blob) is
  (tblSet(seeds, udpDst(#2 p), udpSrc(#2 p)); (ps, ss))
|}
  in
  let program = Runtime.install_exn rt ~source () in
  let net () =
    Packet.udp
      ~src:(Netsim.Addr.of_string "10.50.0.2")
      ~dst:(Netsim.Addr.of_string "10.50.0.1")
      ~src_port:7 ~dst_port:3 (Payload.of_string "x")
  in
  let mut () =
    Packet.udp ~chan_tag:"mut"
      ~src:(Netsim.Addr.of_string "0.0.0.42")
      ~dst:(Netsim.Addr.of_string "10.50.0.1")
      ~src_port:42 ~dst_port:3 (Payload.of_string "x")
  in
  Runtime.inject rt (net ());
  Runtime.inject rt (net ());
  check "default read twice" 14
    (match Runtime.proto_state program with Value.Vint n -> n | _ -> -1);
  (* The mutation flows through the uncacheable channel; the next read
     must observe it, not a stale entry. *)
  Runtime.inject rt (mut ());
  Runtime.inject rt (net ());
  check "mutated read observed" 56
    (match Runtime.proto_state program with Value.Vint n -> n | _ -> -1)

let epoch_invalidation () =
  reset ();
  let topo = Topology.create () in
  let a = Topology.add_host topo "fc-a" "10.51.0.1" in
  let b = Topology.add_host topo "fc-b" "10.51.0.2" in
  ignore (Topology.connect topo a b);
  Topology.compute_routes topo;
  let rt = Runtime.attach a in
  let e0 = Runtime.epoch rt in
  let program =
    Runtime.install_exn rt
      ~source:(Asp.Mpeg_asp.filter_program ~drop_b:true ())
      ()
  in
  checkb "install bumps the epoch" true (Runtime.epoch rt > e0);
  (* Route recomputation (also what fault reconvergence calls) flushes. *)
  let e1 = Runtime.epoch rt in
  Topology.compute_routes topo;
  checkb "route rebuild bumps the epoch" true (Runtime.epoch rt > e1);
  let e2 = Runtime.epoch rt in
  Runtime.uninstall rt program;
  checkb "uninstall bumps the epoch" true (Runtime.epoch rt > e2)

(* Direct build/probe/commit round trip, pinning entry counts. *)
let direct_size () =
  let source = Asp.Mpeg_asp.filter_program ~drop_b:true () in
  let chk = checked source in
  let globals = globals_of chk in
  let program = chk.Planp.Typecheck.program in
  let chan, verdict =
    List.hd (Cacheability.analyze ~classify:Cache.classify program)
  in
  let fc =
    match Cache.build ~node_name:"unit" ~chan ~verdict ~globals ~funs:[] with
    | Some fc -> fc
    | None -> Alcotest.fail "filter must build a cache"
  in
  check "starts empty" 0 (Cache.size fc);
  let exec =
    match Interp.backend.Backend.compile chk ~globals with
    | [ (_, exec) ] -> exec
    | _ -> Alcotest.fail "one channel"
  in
  let world, _, _ = Planp_runtime.World.dummy () in
  let round src =
    let packet = b_frame ~src () in
    let pkt =
      match Planp_runtime.Pkt_codec.decode chan.Ast.pkt_type packet with
      | Some v -> v
      | None -> Alcotest.fail "decode"
    in
    let src = packet.Packet.src and dst = packet.Packet.dst in
    match
      Cache.probe fc ~epoch:0 ~world ~src ~dst ~ps:(Value.Vint 0)
        ~ss:(Value.Vint 0) ~pkt
    with
    | `Hit hit -> `Hit hit
    | `Bypass -> Alcotest.fail "unexpected bypass"
    | `Miss ->
        let r, rworld =
          Cache.start_recording fc ~world ~ps:(Value.Vint 0) ~ss:(Value.Vint 0)
            ~pkt
        in
        let ps', ss' =
          exec rworld ~ps:(Value.Vint 0) ~ss:(Value.Vint 0) ~pkt
        in
        Cache.commit fc r ~epoch:0 ~error:false ~ps:(Value.Vint 0) ~ps'
          ~ss:(Value.Vint 0) ~ss' ~steps:0 ~prims:0;
        `Miss
  in
  checkb "first probe misses" true (round "10.6.0.1" = `Miss);
  check "one entry" 1 (Cache.size fc);
  (match round "10.6.0.1" with
  | `Hit hit ->
      check "replayed delta" 1 hit.Cache.h_delta;
      checkb "no error" false hit.Cache.h_error
  | `Miss -> Alcotest.fail "second probe must hit");
  checkb "second flow misses" true (round "10.6.0.2" = `Miss);
  check "two entries" 2 (Cache.size fc)

(* ------------------------------------------------------------------ *)
(* Parity: cache on vs cache off                                       *)
(* ------------------------------------------------------------------ *)

let with_cache enabled f =
  let was = Cache.enabled () in
  Cache.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Cache.set_enabled was) f

let audio_parity () =
  let leg enabled =
    with_cache enabled (fun () ->
        reset ();
        let r = Asp.Audio_experiment.run (Asp.Audio_experiment.quick_config ()) in
        ( ( r.Asp.Audio_experiment.frames_sent,
            r.Asp.Audio_experiment.frames_received,
            r.Asp.Audio_experiment.silent_periods,
            r.Asp.Audio_experiment.silent_frames,
            r.Asp.Audio_experiment.segment_drops,
            r.Asp.Audio_experiment.wire_quality_counts ),
          metrics () ))
  in
  let s_on, m_on = leg true in
  let s_off, m_off = leg false in
  checkb "audio summary parity" true (s_on = s_off);
  checks "audio metrics parity" m_off m_on

let mpeg_parity () =
  let leg enabled =
    with_cache enabled (fun () ->
        reset ();
        let r = Asp.Mpeg_experiment.run (Asp.Mpeg_experiment.default_config ()) in
        ( ( r.Asp.Mpeg_experiment.server_streams,
            r.Asp.Mpeg_experiment.server_frames_sent,
            r.Asp.Mpeg_experiment.client_frames,
            r.Asp.Mpeg_experiment.segment_video_bytes ),
          metrics () ))
  in
  let s_on, m_on = leg true in
  let s_off, m_off = leg false in
  checkb "mpeg summary parity" true (s_on = s_off);
  checks "mpeg metrics parity" m_off m_on

let http_parity () =
  let config =
    { Asp.Http_experiment.default_config with
      duration = 6.0;
      warmup = 2.0;
      trace_requests = 2_000
    }
  in
  let leg enabled =
    with_cache enabled (fun () ->
        reset ();
        let p =
          Asp.Http_experiment.run_point config
            (Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit) ~workers:4
        in
        ( ( p.Asp.Http_experiment.replies_per_s,
            p.Asp.Http_experiment.server_loads,
            p.Asp.Http_experiment.gateway_requests ),
          metrics () ))
  in
  let s_on, m_on = leg true in
  let s_off, m_off = leg false in
  checkb "http summary parity" true (s_on = s_off);
  checks "http metrics parity" m_off m_on

(* A 4-domain partitioned run with runtimes and caches on the interior
   routers must export the same metrics as one engine, cache on or off:
   the full 2x2 of (domains, cache). *)
let domains_parity () =
  let leg ~domains ~cache =
    with_cache cache (fun () ->
        reset ();
        let topo = Topology.create () in
        let source = Topology.add_host topo "fc-src" "10.52.0.1" in
        let r1 = Topology.add_host topo "fc-r1" "10.52.0.2" in
        let r2 = Topology.add_host topo "fc-r2" "10.52.0.3" in
        let sink = Topology.add_host topo "fc-sink" "10.52.0.4" in
        ignore
          (Topology.connect topo source r1 ~name:"hop1" ~latency:0.003
             ~bandwidth_bps:50_000_000.0);
        ignore
          (Topology.connect topo r1 r2 ~name:"hop2" ~latency:0.004
             ~bandwidth_bps:50_000_000.0);
        ignore
          (Topology.connect topo r2 sink ~name:"hop3" ~latency:0.005
             ~bandwidth_bps:50_000_000.0);
        Topology.compute_routes topo;
        List.iter
          (fun node ->
            let rt = Runtime.attach node in
            ignore
              (Runtime.install_exn rt
                 ~source:(Asp.Mpeg_asp.filter_program ~drop_b:true ())
                 ()))
          [ r1; r2 ];
        let par =
          match Netsim.Par_engine.of_topology topo ~domains with
          | Ok par -> par
          | Error m -> Alcotest.fail m
        in
        let received = ref 0 in
        Node.on_udp sink ~port:7101 (fun _ _ -> incr received);
        let engine = Node.engine source in
        let payload kind =
          let body = Bytes.make 16 '\000' in
          Bytes.set body 8 (Char.chr kind);
          Payload.of_bytes body
        in
        let rec send n () =
          if n > 0 then begin
            Node.send_udp source ~dst:(Node.addr sink) ~src_port:554
              ~dst_port:7101
              (payload (if n mod 2 = 0 then 2 else 1));
            Engine.schedule_after engine ~delay:0.005 (send (n - 1))
          end
        in
        Engine.schedule engine ~at:0.001 (send 30);
        Netsim.Par_engine.run_until par ~stop:1.0;
        (!received, metrics ()))
  in
  let f0, m0 = leg ~domains:1 ~cache:true in
  check "I-frames survive the filters" 15 f0;
  let legs =
    [ leg ~domains:1 ~cache:false;
      leg ~domains:4 ~cache:true;
      leg ~domains:4 ~cache:false ]
  in
  List.iter
    (fun (f, m) ->
      check "frame parity" f0 f;
      checks "metrics parity" m0 m)
    legs

(* ------------------------------------------------------------------ *)
(* Property: cacheable decisions replay exactly (satellite)            *)
(* ------------------------------------------------------------------ *)

(* Random packet streams with interleaved table mutations against a
   generated cacheable channel: the run with the cache must agree with
   the run without it on protocol state, runtime stats and the full
   deterministic metrics export (which sees every emission as a node
   counter). *)
let decision_parity_prop =
  let gen =
    Q.Gen.(
      pair
        (pair (int_range 0 3) (int_range 1 50))
        (list_size (int_range 1 40)
           (pair (int_range 0 2) (pair (int_range 0 3) (int_range 1 60)))))
  in
  let arb = Q.make ~print:Q.Print.(pair (pair int int) (list (pair int (pair int int)))) gen in
  Q.Test.make ~name:"flowcache: cached decisions replay exactly" ~count:40 arb
    (fun ((port, bump), stream) ->
      let source =
        Printf.sprintf
          {|val seeds : (int, int) hash_table = mkTable(8)
val hotPort : int = %d

channel network(ps : int, ss : unit, p : ip*udp*blob) is
  if udpDst(#2 p) = hotPort then
    ((ps + tblGet(seeds, udpDst(#2 p), %d)), ss)
  else
    (OnRemote(network, p); (ps, ss))

channel mut(ps : int, ss : unit, p : ip*udp*blob) is
  (tblSet(seeds, udpDst(#2 p), udpSrc(#2 p)); (ps, ss))
|}
          port bump
      in
      let leg enabled =
        with_cache enabled (fun () ->
            reset ();
            let rt = make_rt () in
            let program = Runtime.install_exn rt ~source () in
            List.iter
              (fun (kind, (dst_port, value)) ->
                let packet =
                  if kind = 0 then
                    Packet.udp ~chan_tag:"mut"
                      ~src:(Netsim.Addr.of_string (Printf.sprintf "0.0.0.%d" value))
                      ~dst:(Netsim.Addr.of_string "10.50.0.1")
                      ~src_port:value ~dst_port (Payload.of_string "m")
                  else
                    Packet.udp
                      ~src:
                        (Netsim.Addr.of_string
                           (Printf.sprintf "10.50.1.%d" (1 + (kind mod 2))))
                      ~dst:(Netsim.Addr.of_string "10.50.0.1")
                      ~src_port:9 ~dst_port (Payload.of_string "n")
                in
                Runtime.inject rt packet)
              stream;
            let stats = Runtime.stats rt in
            ( (match Runtime.proto_state program with
              | Value.Vint n -> n
              | _ -> -1),
              stats.Runtime.handled,
              stats.Runtime.errors,
              metrics () ))
      in
      leg true = leg false)

(* ------------------------------------------------------------------ *)
(* Profiling counters are per-domain (satellite)                       *)
(* ------------------------------------------------------------------ *)

let interp_profile_domains () =
  let source =
    "channel network(ps : int, ss : unit, p : ip*udp*blob) is ((ps + 1), ss)"
  in
  let chk = checked source in
  let chan, exec =
    match Interp.backend.Backend.compile chk ~globals:[] with
    | [ slot ] -> slot
    | _ -> Alcotest.fail "one channel"
  in
  let packet =
    Packet.udp
      ~src:(Netsim.Addr.of_string "10.50.0.2")
      ~dst:(Netsim.Addr.of_string "10.50.0.1")
      ~src_port:1 ~dst_port:2 (Payload.of_string "x")
  in
  let pkt =
    match Planp_runtime.Pkt_codec.decode chan.Ast.pkt_type packet with
    | Some v -> v
    | None -> Alcotest.fail "decode"
  in
  let run_packets n () =
    let world, _, _ = Planp_runtime.World.dummy () in
    let s0, _ = Interp.profile () in
    for _ = 1 to n do
      ignore (exec world ~ps:(Value.Vint 0) ~ss:Value.Vunit ~pkt)
    done;
    let s1, _ = Interp.profile () in
    s1 - s0
  in
  let main0, _ = Interp.profile () in
  let d1 = Domain.spawn (run_packets 100) in
  let d2 = Domain.spawn (run_packets 200) in
  let steps1 = Domain.join d1 and steps2 = Domain.join d2 in
  let main1, _ = Interp.profile () in
  checkb "domain one counted" true (steps1 > 0);
  (* Same packet, same channel: per-packet step cost is deterministic,
     so the counts are exactly proportional — and main's cell is
     untouched by the workers. *)
  check "per-domain counts are independent" (2 * steps1) steps2;
  check "main domain unaffected" main0 main1

(* ------------------------------------------------------------------ *)
(* Retune reaches the distillation thresholds (satellite)              *)
(* ------------------------------------------------------------------ *)

let retune_applies () =
  let policy =
    {
      Adapt.Policy.period = 0.5;
      alpha = 0.4;
      rules =
        [
          {
            Adapt.Policy.rl_name = "floor";
            rl_pred =
              Adapt.Policy.Cmp
                { signal = "goodput"; cmp = Adapt.Policy.Ge; threshold = 0.0 };
            rl_hold = 0.0;
            rl_cooldown = 10_000.0;
            rl_action =
              Adapt.Policy.Retune { param = "mono8_above"; value = 0.0 };
          };
        ];
      guard = None;
    }
  in
  reset ();
  let r =
    Asp.Audio_experiment.run
      (Asp.Audio_experiment.quick_config ~adapt:true
         ~deploy:Asp.Deploy_mode.In_band ~adaptation:policy ())
  in
  (match r.Asp.Audio_experiment.adaptation with
  | None -> Alcotest.fail "adaptation stats expected"
  | Some stats -> check "one retune fired" 1 stats.Adapt.Plane.st_retunes);
  (* mono8_above = 0 floors the distillation: with the threshold gone,
     nearly the whole run ships 8-bit mono (the untouched quick run
     ships 826 of 2500 frames as mono8 — see the golden pin). *)
  let _, _, m8 = r.Asp.Audio_experiment.wire_quality_counts in
  checkb "retuned threshold took effect" true (m8 > 2000)

let () =
  Planp_runtime.Prims.install ();
  Alcotest.run "flowcache"
    [
      ("analysis", [ Alcotest.test_case "bundled verdicts" `Quick verdicts_bundled ]);
      ( "replay",
        [
          Alcotest.test_case "drop and count" `Quick replay_drop_and_count;
          Alcotest.test_case "deliver" `Quick replay_deliver;
          Alcotest.test_case "errors" `Quick replay_error;
          Alcotest.test_case "table generation" `Quick table_generation_invalidates;
          Alcotest.test_case "epochs" `Quick epoch_invalidation;
          Alcotest.test_case "direct build/probe" `Quick direct_size;
        ] );
      ( "parity",
        [
          Alcotest.test_case "audio experiment" `Quick audio_parity;
          Alcotest.test_case "mpeg experiment" `Quick mpeg_parity;
          Alcotest.test_case "http experiment" `Quick http_parity;
          Alcotest.test_case "4-domain run" `Quick domains_parity;
          QCheck_alcotest.to_alcotest decision_parity_prop;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "interp profiling is per-domain" `Quick
            interp_profile_domains;
          Alcotest.test_case "retune reaches thresholds" `Quick retune_applies;
        ] );
    ]
