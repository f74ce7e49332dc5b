(* Tests for the application layer: workload generators and the pieces of
   the three experiments (audio, HTTP, MPEG). *)

module Rng = Asp.Rng
module Loadgen = Asp.Loadgen
module Http_app = Asp.Http_app
module Audio_app = Asp.Audio_app
module Mpeg_app = Asp.Mpeg_app
module Node = Netsim.Node
module Topology = Netsim.Topology
module Payload = Netsim.Payload

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------- rng ---------- *)

let rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Rng.float a) (Rng.float b)
  done

let rng_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let n = Rng.int rng 10 in
    checkb "in range" true (n >= 0 && n < 10)
  done

let rng_zipf_skew () =
  let rng = Rng.create ~seed:11 in
  let counts = Array.make 101 0 in
  for _ = 1 to 10_000 do
    let rank = Rng.zipf rng ~n:100 ~alpha:1.0 in
    counts.(rank) <- counts.(rank) + 1
  done;
  checkb "rank 1 most popular" true (counts.(1) > counts.(10));
  checkb "rank 10 beats rank 90" true (counts.(10) > counts.(90));
  checkb "rank 1 a large share" true (counts.(1) > 1000)

let rng_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean close to 2" true (mean > 1.8 && mean < 2.2)

(* ---------- loadgen ---------- *)

let loadgen_rate () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  ignore (Topology.connect topo ~bandwidth_bps:100e6 a b);
  Topology.compute_routes topo;
  let gen =
    Loadgen.start ~packet_size:1000 a ~dst:(Node.addr b)
      ~schedule:[ (0.0, 100.0) ] ~until:10.0 ()
  in
  let received = ref 0 and received_bytes = ref 0 and bad_bodies = ref 0 in
  let expected_body = Payload.fill 1000 0xAA in
  Node.on_udp b ~port:9 (fun _ packet ->
      let body = packet.Netsim.Packet.body in
      incr received;
      received_bytes := !received_bytes + Payload.length body;
      if not (Payload.equal body expected_body) then incr bad_bodies);
  Topology.run topo;
  (* 100 kB/s for 10 s at 1000 B per packet = ~1000 packets *)
  checkb "about 1000 packets" true
    (abs (Loadgen.packets_sent gen - 1000) <= 2);
  check "bytes" (Loadgen.packets_sent gen * 1000) (Loadgen.bytes_sent gen);
  (* Pinned exactly: summing the 0.01 s interval in floats puts the
     1001st send just under [until]. *)
  check "packets" 1001 (Loadgen.packets_sent gen);
  check "every packet arrives" (Loadgen.packets_sent gen) !received;
  check "every byte arrives" (Loadgen.bytes_sent gen) !received_bytes;
  check "every body is the fill pattern" 0 !bad_bodies

let loadgen_schedule_steps () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  ignore (Topology.connect topo ~bandwidth_bps:100e6 a b);
  Topology.compute_routes topo;
  let gen =
    Loadgen.start ~packet_size:1000 a ~dst:(Node.addr b)
      ~schedule:[ (0.0, 0.0); (5.0, 100.0) ]
      ~until:10.0 ()
  in
  Topology.run topo;
  (* paused for 5 s, then 100 kB/s for 5 s *)
  checkb "about 500 packets" true (abs (Loadgen.packets_sent gen - 500) <= 2)

(* ---------- http ---------- *)

let http_file_sizes_deterministic () =
  check "same twice" (Http_app.file_size 17) (Http_app.file_size 17);
  checkb "bounded" true
    (List.for_all
       (fun i ->
         let s = Http_app.file_size i in
         s >= 256 && s <= 262_144)
       (List.init 500 Fun.id))

let http_file_sizes_drawn_once () =
  (* The kept sizes equal a fresh draw of the formula, on first and
     repeated reads, in this domain and in a second one. *)
  let formula file_id =
    let rng = Asp.Rng.create ~seed:((file_id * 2654435761) lor 1) in
    let size = Asp.Rng.lognormal rng ~mu:(log 4000.0) ~sigma:1.0 in
    Int.max 256 (Int.min 262_144 (int_of_float size))
  in
  let ids = List.init 5000 (fun i -> i + 1) in
  let mismatches () =
    List.length
      (List.filter
         (fun id ->
           let first = Http_app.file_size id in
           first <> formula id || Http_app.file_size id <> first)
         ids)
  in
  check "this domain" 0 (mismatches ());
  check "another domain" 0 (Domain.join (Domain.spawn mismatches));
  check "past the kept range" (formula 1_000_003) (Http_app.file_size 1_000_003)

let http_trace () =
  let trace = Http_app.Trace.generate ~requests:100 ~files:10 ~seed:1 () in
  check "remaining" 100 (Http_app.Trace.remaining trace);
  let pulled = List.init 100 (fun _ -> Option.get (Http_app.Trace.pull trace)) in
  checkb "ids in range" true (List.for_all (fun i -> i >= 1 && i <= 10) pulled);
  checkb "exhausted" true (Option.is_none (Http_app.Trace.pull trace))

(* The trace as it was first built: every id drawn into a list before
   the first pull. The on-demand trace must yield exactly these. *)
let eager_trace ?(alpha = 0.9) ~requests ~files ~seed () =
  let rng = Rng.create ~seed in
  List.init requests (fun _ -> Rng.zipf rng ~n:files ~alpha)

let pull_all trace =
  List.init (Http_app.Trace.remaining trace) (fun _ ->
      Option.get (Http_app.Trace.pull trace))

let http_trace_matches_eager () =
  List.iter
    (fun (requests, files, alpha, seed) ->
      let name =
        Printf.sprintf "requests %d, files %d, alpha %g, seed %d" requests files
          alpha seed
      in
      let trace = Http_app.Trace.generate ~alpha ~requests ~files ~seed () in
      Alcotest.(check (list int))
        name
        (eager_trace ~alpha ~requests ~files ~seed ())
        (pull_all trace);
      checkb (name ^ ": exhausted") true (Option.is_none (Http_app.Trace.pull trace)))
    [
      (0, 10, 0.9, 1);
      (1, 1, 0.9, 0);
      (100, 10, 0.9, 1);
      (1_000, 2_000, 0.9, 7);
      (500, 50, 0.5, 42);
      (2_000, 3, 1.5, 123_456);
    ]

let http_trace_counts_down () =
  let trace = Http_app.Trace.generate ~requests:25 ~files:10 ~seed:3 () in
  for left = 25 downto 1 do
    check "remaining before a pull" left (Http_app.Trace.remaining trace);
    checkb "pull yields an id" true (Option.is_some (Http_app.Trace.pull trace))
  done;
  check "remaining at the end" 0 (Http_app.Trace.remaining trace);
  checkb "pull at the end" true (Option.is_none (Http_app.Trace.pull trace));
  check "remaining stays 0" 0 (Http_app.Trace.remaining trace)

let http_end_to_end_small () =
  let topo = Topology.create () in
  let server_node = Topology.add_host topo "server" "10.0.0.1" in
  let client_node = Topology.add_host topo "client" "10.0.0.2" in
  ignore (Topology.connect topo ~bandwidth_bps:100e6 server_node client_node);
  Topology.compute_routes topo;
  let server = Http_app.Server.start server_node () in
  let trace = Http_app.Trace.generate ~requests:20 ~files:5 ~seed:2 () in
  let client =
    Http_app.Client.start ~warmup:0.0 client_node ~server:(Node.addr server_node)
      ~workers:2 ~trace ()
  in
  Topology.run_until topo ~stop:30.0;
  check "all 20 requests served" 20 (Http_app.Server.requests_served server);
  check "all 20 responses completed" 20 (Http_app.Client.completed client);
  check "nothing in flight" 0 (Http_app.Client.in_flight client);
  checkb "responses took time" true (Http_app.Client.mean_response_time client > 0.0)

(* One response body per server: every segment is [min mss remaining]
   bytes of 0x55, a response's segments add up to the file size, and all
   segments are views of one string that still reads all 0x55 after the
   run. *)
let http_shared_response_body () =
  let topo = Topology.create () in
  let server_node = Topology.add_host topo "server" "10.0.0.1" in
  let client_node = Topology.add_host topo "client" "10.0.0.2" in
  ignore (Topology.connect topo ~bandwidth_bps:100e6 server_node client_node);
  Topology.compute_routes topo;
  let mss = 1460 in
  ignore (Http_app.Server.start ~mss server_node ());
  let segments = Hashtbl.create 8 in
  Node.on_tcp_default client_node (fun _ (packet : Netsim.Packet.t) ->
      match packet.Netsim.Packet.l4 with
      | Netsim.Packet.Tcp { Netsim.Packet.tcp_dst; tcp_seq; _ } ->
          let seen =
            Option.value ~default:[] (Hashtbl.find_opt segments tcp_dst)
          in
          Hashtbl.replace segments tcp_dst
            ((tcp_seq, packet.Netsim.Packet.body) :: seen)
      | Netsim.Packet.Udp _ | Netsim.Packet.Raw -> ());
  let files = List.init 6 (fun i -> i + 1) in
  List.iter
    (fun file ->
      let writer = Payload.Writer.create () in
      Payload.Writer.u32 writer file;
      Node.send_tcp client_node ~dst:(Node.addr server_node)
        ~src_port:(20000 + file) ~dst_port:80 (Payload.Writer.finish writer))
    files;
  Topology.run_until topo ~stop:30.0;
  let all_55 (base, off, len) =
    let ok = ref true in
    for i = off to off + len - 1 do
      if base.[i] <> '\x55' then ok := false
    done;
    !ok
  in
  let bodies =
    List.concat_map
      (fun file ->
        let size = Http_app.file_size file in
        let segs =
          Option.value ~default:[] (Hashtbl.find_opt segments (20000 + file))
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map snd
        in
        check (Printf.sprintf "file %d: bytes sum to its size" file) size
          (List.fold_left (fun acc body -> acc + Payload.length body) 0 segs);
        List.iteri
          (fun k body ->
            let len = Payload.length body in
            check
              (Printf.sprintf "file %d segment %d length" file k)
              (Int.min mss (size - (k * mss)))
              len;
            let base, off = Payload.window body ~pos:0 ~len in
            checkb
              (Printf.sprintf "file %d segment %d all 0x55" file k)
              true (all_55 (base, off, len)))
          segs;
        segs)
      files
  in
  checkb "some response spans several segments" true
    (List.length bodies > List.length files);
  let base body = fst (Payload.window body ~pos:0 ~len:(Payload.length body)) in
  let shared = base (List.hd bodies) in
  checkb "every segment is a view of one body" true
    (List.for_all (fun body -> base body == shared) bodies);
  check "the shared body is one segment long" mss (String.length shared);
  checkb "the shared body still reads all 0x55" true
    (all_55 (shared, 0, String.length shared))

let http_gateway_balances () =
  (* Native gateway splits a stream of distinct connections ~evenly. *)
  let topo = Topology.create () in
  let gw = Topology.add_host topo "gw" "10.3.0.254" in
  let s0 = Topology.add_host topo "s0" "10.3.0.1" in
  let s1 = Topology.add_host topo "s1" "10.3.0.2" in
  let client = Topology.add_host topo "c" "10.4.0.1" in
  let seg = Topology.segment topo ~bandwidth_bps:100e6 () in
  ignore (Topology.attach topo seg gw);
  ignore (Topology.attach topo seg s0);
  ignore (Topology.attach topo seg s1);
  ignore (Topology.connect topo gw client);
  Topology.compute_routes topo;
  let vip = Netsim.Addr.of_string "10.3.0.100" in
  Netsim.Routing.set_default (Node.routing client)
    (Some { Netsim.Routing.ifindex = 0; next_hop = Some (Node.addr gw) });
  let counter =
    Asp.Http_asp.install_native_gateway gw ~vip
      ~servers:(Node.addr s0, Node.addr s1) ()
  in
  let hits0 = ref 0 and hits1 = ref 0 in
  Node.on_tcp s0 ~port:80 (fun _ _ -> incr hits0);
  Node.on_tcp s1 ~port:80 (fun _ _ -> incr hits1);
  for i = 1 to 10 do
    Node.send_tcp client ~dst:vip ~src_port:(1000 + i) ~dst_port:80
      (Payload.of_string "GET")
  done;
  Topology.run topo;
  check "all rewritten" 10 !counter;
  check "s0 share" 5 !hits0;
  check "s1 share" 5 !hits1

let http_gateway_connection_affinity () =
  (* Same client port twice -> same physical server, via the table. *)
  let topo = Topology.create () in
  let gw = Topology.add_host topo "gw" "10.3.0.254" in
  let s0 = Topology.add_host topo "s0" "10.3.0.1" in
  let s1 = Topology.add_host topo "s1" "10.3.0.2" in
  let client = Topology.add_host topo "c" "10.4.0.1" in
  let seg = Topology.segment topo ~bandwidth_bps:100e6 () in
  ignore (Topology.attach topo seg gw);
  ignore (Topology.attach topo seg s0);
  ignore (Topology.attach topo seg s1);
  ignore (Topology.connect topo gw client);
  Topology.compute_routes topo;
  let vip = Netsim.Addr.of_string "10.3.0.100" in
  Netsim.Routing.set_default (Node.routing client)
    (Some { Netsim.Routing.ifindex = 0; next_hop = Some (Node.addr gw) });
  (* Use the PLAN-P gateway here: exercises the hash-table path. *)
  ignore
    (Extnet.load_exn gw
       ~source:
         (Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
            ~servers:("10.3.0.1", "10.3.0.2") ())
       ());
  let hits0 = ref 0 and hits1 = ref 0 in
  Node.on_tcp s0 ~port:80 (fun _ _ -> incr hits0);
  Node.on_tcp s1 ~port:80 (fun _ _ -> incr hits1);
  (* three packets of one connection, then one of another *)
  for _ = 1 to 3 do
    Node.send_tcp client ~dst:vip ~src_port:7777 ~dst_port:80
      (Payload.of_string "x")
  done;
  Node.send_tcp client ~dst:vip ~src_port:8888 ~dst_port:80
    (Payload.of_string "y");
  Topology.run topo;
  check "total" 4 (!hits0 + !hits1);
  checkb "affinity: one server got all three" true
    ((!hits0 = 3 && !hits1 = 1) || (!hits0 = 1 && !hits1 = 3))

(* ---------- audio app ---------- *)

let audio_client_counts_gaps () =
  let topo = Topology.create () in
  let src = Topology.add_host topo "src" "10.0.0.1" in
  let dst = Topology.add_host topo "dst" "10.0.0.2" in
  ignore (Topology.connect topo ~bandwidth_bps:100e6 src dst);
  Topology.compute_routes topo;
  let client = Audio_app.Client.attach dst () in
  let source = Audio_app.Source.start src ~until:2.0 () in
  Topology.run_until topo ~stop:3.0;
  let sent = Audio_app.Source.frames_sent source in
  check "all received" sent (Audio_app.Client.frames_received client);
  let periods, silent =
    Audio_app.Client.silent_periods client ~frames_expected:sent
  in
  check "no gaps" 0 periods;
  check "no silent frames" 0 silent;
  (* pretend 10 more frames were expected: one trailing gap *)
  let periods, silent =
    Audio_app.Client.silent_periods client ~frames_expected:(sent + 10)
  in
  check "one trailing gap" 1 periods;
  check "ten silent" 10 silent

(* ---------- mpeg app ---------- *)

let mpeg_setup_codec () =
  let setup = { Mpeg_app.file_id = 9; total_frames = 360 } in
  (match Mpeg_app.decode_setup (Mpeg_app.encode_setup setup) with
  | Some decoded ->
      check "file" 9 decoded.Mpeg_app.file_id;
      check "frames" 360 decoded.Mpeg_app.total_frames
  | None -> Alcotest.fail "setup roundtrip");
  checkb "rejects junk" true
    (Option.is_none (Mpeg_app.decode_setup (Payload.of_string "nope")))

let mpeg_direct_streaming () =
  let topo = Topology.create () in
  let server_node = Topology.add_host topo "server" "10.0.0.1" in
  let client_node = Topology.add_host topo "client" "10.0.0.2" in
  ignore (Topology.connect topo ~bandwidth_bps:100e6 server_node client_node);
  Topology.compute_routes topo;
  let server = Mpeg_app.Server.start server_node ~movie_frames:48 () in
  (* no monitor deployed: the client must fall back to a direct PLAY *)
  let client =
    Mpeg_app.Client.start client_node ~server:(Node.addr server_node)
      ~monitor:(Netsim.Addr.of_string "10.0.0.99")
      ~file:3 ~at:0.1 ()
  in
  Topology.run_until topo ~stop:10.0;
  check "one stream" 1 (Mpeg_app.Server.streams_opened server);
  check "all frames" 48 (Mpeg_app.Client.frames_received client);
  Alcotest.(check (option bool)) "went direct" (Some false)
    (Mpeg_app.Client.used_existing client);
  (match Mpeg_app.Client.setup_received client with
  | Some setup -> check "setup frames" 48 setup.Mpeg_app.total_frames
  | None -> Alcotest.fail "no setup received")

let mpeg_gop_sizes () =
  check "I" 12000 (Mpeg_app.frame_size Mpeg_app.I_frame);
  check "gop length" 9 (Array.length Mpeg_app.gop_pattern);
  checkb "starts with I" true (Mpeg_app.gop_pattern.(0) = Mpeg_app.I_frame)

(* ---------- ASP source generators ---------- *)

let asp_sources_check () =
  List.iter
    (fun (name, source) ->
      match Extnet.check_source source with
      | Ok _ -> ()
      | Error message -> Alcotest.failf "%s: %s" name message)
    [
      ("audio router", Asp.Audio_asp.router_program ~iface:0 ());
      ("audio router alt policy",
        Asp.Audio_asp.router_program
          ~policy:{ Asp.Audio_asp.mono16_above = 1; mono8_above = 2 }
          ~iface:3 ());
      ("audio client", Asp.Audio_asp.client_program ());
      ("http gateway",
        Asp.Http_asp.gateway_program ~vip:"1.2.3.4" ~servers:("5.6.7.8", "9.10.11.12") ());
      ("mpeg monitor", Asp.Mpeg_asp.monitor_program ~server:"1.2.3.4" ());
      ("mpeg capture", Asp.Mpeg_asp.capture_program ());
    ]

let asp_line_counts () =
  (* The paper's Fig. 3 reports 28-161 lines; ours are the same order. *)
  List.iter
    (fun (name, source, low, high) ->
      let lines = Planp.Ast.line_count source in
      if lines < low || lines > high then
        Alcotest.failf "%s: %d lines outside [%d, %d]" name lines low high)
    [
      ("audio router", Asp.Audio_asp.router_program ~iface:0 (), 15, 80);
      ("audio client", Asp.Audio_asp.client_program (), 10, 40);
      ( "http gateway",
        Asp.Http_asp.gateway_program ~vip:"1.2.3.4" ~servers:("5.6.7.8", "9.9.9.9") (),
        20, 100 );
      ("mpeg monitor", Asp.Mpeg_asp.monitor_program ~server:"1.2.3.4" (), 30, 170);
      ("mpeg capture", Asp.Mpeg_asp.capture_program (), 10, 60);
    ]

let () =
  Alcotest.run "asp-apps"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "bounds" `Quick rng_bounds;
          Alcotest.test_case "zipf skew" `Quick rng_zipf_skew;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "rate" `Quick loadgen_rate;
          Alcotest.test_case "schedule steps" `Quick loadgen_schedule_steps;
        ] );
      ( "http",
        [
          Alcotest.test_case "file sizes" `Quick http_file_sizes_deterministic;
          Alcotest.test_case "file sizes drawn once" `Quick
            http_file_sizes_drawn_once;
          Alcotest.test_case "trace" `Quick http_trace;
          Alcotest.test_case "trace matches eager generation" `Quick
            http_trace_matches_eager;
          Alcotest.test_case "trace counts down" `Quick http_trace_counts_down;
          Alcotest.test_case "end to end" `Quick http_end_to_end_small;
          Alcotest.test_case "shared response body" `Quick
            http_shared_response_body;
          Alcotest.test_case "gateway balances" `Quick http_gateway_balances;
          Alcotest.test_case "connection affinity" `Quick
            http_gateway_connection_affinity;
        ] );
      ( "audio",
        [ Alcotest.test_case "client counts gaps" `Quick audio_client_counts_gaps ] );
      ( "mpeg",
        [
          Alcotest.test_case "setup codec" `Quick mpeg_setup_codec;
          Alcotest.test_case "direct streaming" `Quick mpeg_direct_streaming;
          Alcotest.test_case "gop sizes" `Quick mpeg_gop_sizes;
        ] );
      ( "asp-sources",
        [
          Alcotest.test_case "type check" `Quick asp_sources_check;
          Alcotest.test_case "line counts" `Quick asp_line_counts;
        ] );
    ]
