(* The worked-program corpus (examples/programs/*.planp): every program
   parses, type checks, gets the expected verifier verdict, and behaves as
   its header comment promises, on all three backends. *)

module Runtime = Planp_runtime.Runtime
module Value = Planp_runtime.Value
module Node = Netsim.Node
module Packet = Netsim.Packet
module Payload = Netsim.Payload

let () = Planp_runtime.Prims.install ()
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let corpus_dir = "../examples/programs"

let read name =
  let path = Filename.concat corpus_dir name in
  let ic = open_in_bin path in
  let source = really_input_string ic (in_channel_length ic) in
  close_in ic;
  source

(* (file, expected to pass the verifier?) *)
let corpus =
  [
    ("forwarder.planp", true);
    ("port_redirect.planp", true);
    ("nat.planp", true);
    ("rate_limiter.planp", true);
    ("mirror_tap.planp", true);
    ("hop_recorder.planp", true);
    ("overloaded_commands.planp", true);
    ("neighbor_announce.planp", true);
    ("firewall.planp", false);  (* drops packets: delivery rejects *)
    ("echo_responder.planp", false);  (* 7->7 would loop: true positive *)
  ]

let corpus_checks_and_verdicts () =
  List.iter
    (fun (file, expected_pass) ->
      let source = read file in
      match Extnet.verify_source source with
      | Error message -> Alcotest.failf "%s: front end: %s" file message
      | Ok report ->
          Alcotest.(check bool)
            (file ^ " verdict") expected_pass
            (Extnet.Verifier.passes report))
    corpus

(* A loopback runtime per backend, for behavioural runs. *)
let runtimes_for source =
  List.map
    (fun backend ->
      let engine = Netsim.Engine.create () in
      let node =
        Node.create engine ~name:"n" ~addr:(Netsim.Addr.of_string "10.0.0.99")
      in
      ignore (Node.add_iface node ~name:"if0" (fun ~l2_dst:_ _ -> true));
      let rt = Runtime.attach node in
      ignore (Runtime.install_exn rt ~backend ~source ());
      (backend.Planp_runtime.Backend.backend_name, rt))
    (Planp_jit.Backends.all ())

let proto_int rt =
  match Runtime.proto_state (List.hd (Runtime.installed_programs rt)) with
  | Value.Vint n -> n
  | v -> Alcotest.failf "protocol state not an int: %s" (Value.to_string v)

let forwarder_counts () =
  List.iter
    (fun (name, rt) ->
      for _ = 1 to 5 do
        Runtime.inject rt
          (Packet.tcp ~src:1 ~dst:2 ~src_port:1 ~dst_port:80 Payload.empty)
      done;
      check (name ^ ": counted") 5 (proto_int rt);
      check (name ^ ": handled") 5 (Runtime.stats rt).Runtime.handled)
    (runtimes_for (read "forwarder.planp"))

(* Run the program on a 3-node line and report what the far end receives. *)
let through_router source packets =
  let topo = Netsim.Topology.create () in
  let a = Netsim.Topology.add_host topo "a" "192.168.1.10" in
  let r = Netsim.Topology.add_host topo "r" "10.0.0.254" in
  let b = Netsim.Topology.add_host topo "b" "10.0.0.2" in
  ignore (Netsim.Topology.connect topo a r);
  ignore (Netsim.Topology.connect topo r b);
  Netsim.Topology.compute_routes topo;
  ignore (Extnet.load_exn r ~source ());
  let seen = ref [] in
  Node.on_tcp_default b (fun _ p -> seen := p :: !seen);
  Node.on_udp_default b (fun _ p -> seen := p :: !seen);
  List.iter (fun packet -> Node.originate a packet) (packets a b);
  Netsim.Topology.run topo;
  List.rev !seen

let port_redirect_behaviour () =
  let received =
    through_router (read "port_redirect.planp") (fun a b ->
        [
          Packet.tcp ~src:(Node.addr a) ~dst:(Node.addr b) ~src_port:5000
            ~dst_port:8080 (Payload.of_string "x");
          Packet.tcp ~src:(Node.addr a) ~dst:(Node.addr b) ~src_port:5001
            ~dst_port:443 (Payload.of_string "y");
        ])
  in
  match received with
  | [ first; second ] ->
      (match first.Packet.l4 with
      | Packet.Tcp h -> check "8080 rewritten to 80" 80 h.Packet.tcp_dst
      | _ -> Alcotest.fail "tcp expected");
      (match second.Packet.l4 with
      | Packet.Tcp h -> check "443 untouched" 443 h.Packet.tcp_dst
      | _ -> Alcotest.fail "tcp expected")
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

let nat_behaviour () =
  let received =
    through_router (read "nat.planp") (fun a b ->
        [ Packet.udp ~src:(Node.addr a) ~dst:(Node.addr b) ~src_port:1
            ~dst_port:2 Payload.empty ])
  in
  match received with
  | [ packet ] ->
      checks "source rewritten to the public address" "198.51.100.1"
        (Netsim.Addr.to_string packet.Packet.src)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

let rate_limiter_behaviour () =
  (* On a loopback runtime: after the allowance, packets are delivered
     locally rather than forwarded — observable via node counters. *)
  List.iter
    (fun (name, rt) ->
      let node = Runtime.node rt in
      for i = 1 to 110 do
        Runtime.inject rt
          (Packet.udp ~src:3 ~dst:4 ~src_port:i ~dst_port:9 Payload.empty)
      done;
      (* 100 forwarded (no route on the bare node: dropped_no_route), 10
         delivered locally (no handler: unclaimed). *)
      check (name ^ ": forwarded allowance") 100
        (Node.counters node).Node.dropped_no_route;
      check (name ^ ": excess delivered locally") 10
        (Node.counters node).Node.dropped_unclaimed)
    (runtimes_for (read "rate_limiter.planp"))

let mirror_tap_behaviour () =
  List.iter
    (fun (name, rt) ->
      let node = Runtime.node rt in
      let tapped = ref 0 in
      Node.on_tcp node ~port:25 (fun _ _ -> incr tapped);
      Runtime.inject rt
        (Packet.tcp ~src:1 ~dst:2 ~src_port:9 ~dst_port:25 Payload.empty);
      Runtime.inject rt
        (Packet.tcp ~src:1 ~dst:2 ~src_port:9 ~dst_port:80 Payload.empty);
      check (name ^ ": monitored packet tapped") 1 !tapped;
      (* both packets also forwarded (no route on bare node) *)
      check (name ^ ": both forwarded") 2 (Node.counters node).Node.dropped_no_route)
    (runtimes_for (read "mirror_tap.planp"))

let hop_recorder_behaviour () =
  List.iter
    (fun (name, rt) ->
      List.iter
        (fun ttl ->
          Runtime.inject rt
            (Packet.udp ~ttl ~src:1 ~dst:2 ~src_port:1 ~dst_port:9 Payload.empty))
        [ 64; 64; 32 ];
      let program = List.hd (Runtime.installed_programs rt) in
      match Runtime.channel_state program "network" 0 with
      | Some (Value.Vtable table) ->
          checkb (name ^ ": ttl 64 seen twice") true
            (Value.equal
               (Value.Table.get table (Value.Vint 64) ~default:Value.Vunit)
               (Value.Vint 2));
          checkb (name ^ ": ttl 32 seen once") true
            (Value.equal
               (Value.Table.get table (Value.Vint 32) ~default:Value.Vunit)
               (Value.Vint 1))
      | _ -> Alcotest.fail "table state expected")
    (runtimes_for (read "hop_recorder.planp"))

let overloaded_commands_behaviour () =
  List.iter
    (fun (name, rt) ->
      let send bytes =
        let w = Payload.Writer.create () in
        List.iter (Payload.Writer.u8 w) bytes;
        Runtime.inject rt
          (Packet.tcp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2
             (Payload.Writer.finish w))
      in
      send [ 1; 0; 0; 0; 7 ];  (* CmdA with argument 7 *)
      send [ 2; 1 ];  (* CmdB true *)
      checks (name ^ ": dispatch by shape") "CmdA: 7\nCmdB: " (Runtime.output rt))
    (runtimes_for (read "overloaded_commands.planp"))

let neighbor_announce_behaviour () =
  (* A hub with three spokes: injecting an announcement at the hub reaches
     every neighbor exactly once. *)
  let topo = Netsim.Topology.create () in
  let hub = Netsim.Topology.add_host topo "hub" "10.0.0.254" in
  let spokes =
    List.init 3 (fun i ->
        let s = Netsim.Topology.add_host topo (Printf.sprintf "s%d" i)
            (Printf.sprintf "10.0.0.%d" (i + 1)) in
        ignore (Netsim.Topology.connect topo hub s);
        s)
  in
  Netsim.Topology.compute_routes topo;
  let source = read "neighbor_announce.planp" in
  (* every node runs the program: the hub floods, spokes hear *)
  List.iter (fun node -> ignore (Extnet.load_exn node ~source ()))
    (hub :: spokes);
  let w = Payload.Writer.create () in
  Payload.Writer.u16 w 5;
  Payload.Writer.string w "hello";
  (* ifindex -1: locally originated, so OnNeighbor floods every interface *)
  Node.receive hub ~ifindex:(-1) ~l2_dst:None
    (Packet.udp ~chan_tag:"announce" ~src:(Node.addr hub) ~dst:(Node.addr hub)
       ~src_port:0 ~dst_port:0 (Payload.Writer.finish w));
  Netsim.Topology.run topo;
  List.iter
    (fun spoke ->
      match Extnet.runtime_of spoke with
      | Some rt ->
          checks
            (Node.name spoke ^ " heard it")
            "announcement: hello\n" (Runtime.output rt)
      | None -> Alcotest.fail "runtime missing")
    spokes

let firewall_requires_authentication () =
  let source = read "firewall.planp" in
  let engine = Netsim.Engine.create () in
  let node = Node.create engine ~name:"fw" ~addr:(Netsim.Addr.of_string "10.0.0.1") in
  ignore (Node.add_iface node ~name:"if0" (fun ~l2_dst:_ _ -> true));
  (match Extnet.load node ~source () with
  | Error message ->
      checkb "verifier names delivery" true
        (String.length message > 0)
  | Ok _ -> Alcotest.fail "unverified firewall admitted");
  match Extnet.load ~admission:Extnet.Authenticated node ~source () with
  | Ok _ -> ()
  | Error message -> Alcotest.failf "authenticated load failed: %s" message

let () =
  Alcotest.run "corpus"
    [
      ( "programs",
        [
          Alcotest.test_case "all check; expected verdicts" `Quick
            corpus_checks_and_verdicts;
          Alcotest.test_case "forwarder counts" `Quick forwarder_counts;
          Alcotest.test_case "port redirect" `Quick port_redirect_behaviour;
          Alcotest.test_case "nat" `Quick nat_behaviour;
          Alcotest.test_case "rate limiter" `Quick rate_limiter_behaviour;
          Alcotest.test_case "mirror tap" `Quick mirror_tap_behaviour;
          Alcotest.test_case "hop recorder" `Quick hop_recorder_behaviour;
          Alcotest.test_case "overloaded commands" `Quick
            overloaded_commands_behaviour;
          Alcotest.test_case "neighbor announce" `Quick
            neighbor_announce_behaviour;
          Alcotest.test_case "firewall needs authentication" `Quick
            firewall_requires_authentication;
        ] );
    ]
