(* The partitioned parallel driver ({!Netsim.Par_engine}) and its planner
   ({!Netsim.Partition}): plan shapes, window-round mechanics, and the
   load-bearing property — a [~domains:k] run must produce metrics
   byte-identical to the sequential engine, with or without a (pinned)
   fault scenario.  Every parity leg resets [Obs.Registry.default],
   rebuilds the topology from scratch and compares the deterministic
   registry export as a string. *)

module Q = QCheck
module Topology = Netsim.Topology
module Node = Netsim.Node
module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Payload = Netsim.Payload
module Partition = Netsim.Partition
module Par = Netsim.Par_engine
module Faults = Netsim.Faults
module Registry = Obs.Registry

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

let payload = Payload.of_string "0123456789abcdef"

let or_fail = function Ok v -> v | Error m -> Alcotest.fail m

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let metrics () = Registry.to_json_string Registry.default
let reset () = Registry.reset Registry.default

(* The random parity property runs [prop_scale] times its case count when
   PLANP_PROP_SCALE is set (CI's release job sets 10). *)
let prop_scale =
  match Option.bind (Sys.getenv_opt "PLANP_PROP_SCALE") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

(* ------------------------------------------------------------------ *)
(* Shared builder: [islands] stars of [1 + hosts] nodes, bridged
   router-to-router in a chain by higher-latency links.  Latencies are
   all distinct (index-scaled offsets) so no two events ever tie. *)

let islands_topo ~islands ~hosts () =
  let topo = Topology.create () in
  let routers =
    Array.init islands (fun i ->
        Topology.add_host topo
          (Printf.sprintf "r%d" i)
          (Printf.sprintf "10.20.%d.254" i))
  in
  let members = ref [] in
  Array.iteri
    (fun i router ->
      for h = 1 to hosts do
        let host =
          Topology.add_host topo
            (Printf.sprintf "h%d_%d" i h)
            (Printf.sprintf "10.20.%d.%d" i h)
        in
        ignore
          (Topology.connect topo router host
             ~name:(Printf.sprintf "l%d_%d" i h)
             ~latency:(0.0005 +. (float_of_int ((i * 8) + h) *. 1e-5))
             ~bandwidth_bps:100_000_000.0);
        members := (host, router) :: !members
      done;
      if i > 0 then
        ignore
          (Topology.connect topo routers.(i - 1) router
             ~name:(Printf.sprintf "bridge%d" (i - 1))
             ~latency:(0.005 +. (float_of_int i *. 1e-4))
             ~bandwidth_bps:100_000_000.0))
    routers;
  Topology.compute_routes topo;
  (topo, routers, List.rev !members)

(* Handler-driven traffic: every host ping-pongs UDP with its router, and
   one flow ping-pongs across every bridge.  Installed AFTER the shard
   (the driver requires an empty schedule at shard time). *)
let install_workload routers members =
  (* Handlers run on several domains at once: a plain ref would lose
     increments. *)
  let received = Atomic.make 0 in
  let bounce peer_port node packet =
    Atomic.incr received;
    Node.send_udp node ~dst:packet.Packet.src ~src_port:peer_port
      ~dst_port:
        (match packet.Packet.l4 with
        | Packet.Udp h -> h.Packet.udp_src
        | _ -> peer_port)
      payload
  in
  List.iter
    (fun (host, router) ->
      Node.on_udp host ~port:8001 (bounce 8001);
      Node.on_udp router ~port:8000 (bounce 8000);
      Node.send_udp host ~dst:(Node.addr router) ~src_port:8001
        ~dst_port:8000 payload)
    members;
  Array.iteri
    (fun i a ->
      if i + 1 < Array.length routers then begin
        let b = routers.(i + 1) in
        Node.on_udp a ~port:9100 (bounce 9100);
        Node.on_udp b ~port:9100 (bounce 9100);
        Node.send_udp a ~dst:(Node.addr b) ~src_port:9100 ~dst_port:9100
          payload
      end)
    routers;
  received

(* ------------------------------------------------------------------ *)
(* Partition planning                                                  *)

let plan_two_islands () =
  let topo, routers, members = islands_topo ~islands:2 ~hosts:2 () in
  check "six free components" 6 (Partition.max_parts topo);
  let plan = or_fail (Partition.plan topo ~parts:2) in
  check "parts" 2 plan.Partition.parts;
  check "one cut link" 1 (List.length plan.Partition.cut);
  checkf "lookahead is the bridge latency" 0.0051 plan.Partition.lookahead;
  let part node = plan.Partition.owner.(Topology.node_index topo node) in
  List.iter
    (fun (host, router) ->
      check "host rides with its router" (part router) (part host))
    members;
  checkb "islands on different partitions" true
    (part routers.(0) <> part routers.(1))

let plan_errors () =
  let topo, _, _ = islands_topo ~islands:2 ~hosts:1 () in
  (match Partition.plan topo ~parts:0 with
  | Error m -> checkb "parts >= 1" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "parts=0 accepted");
  (match Partition.plan (Topology.create ()) ~parts:2 with
  | Error m -> checkb "empty topology named" true (contains m "empty")
  | Ok _ -> Alcotest.fail "empty topology accepted")

let plan_segment_glues () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.21.0.1" in
  let b = Topology.add_host topo "b" "10.21.0.2" in
  let c = Topology.add_host topo "c" "10.21.0.3" in
  let seg = Topology.segment topo ~name:"lan" () in
  ignore (Topology.attach topo seg a);
  ignore (Topology.attach topo seg b);
  ignore (Topology.attach topo seg c);
  check "stations glued" 1 (Partition.max_parts topo);
  match Partition.plan topo ~parts:2 with
  | Error m ->
      checkb "error names the split bound" true (contains m "splits into")
  | Ok _ -> Alcotest.fail "glued topology split anyway"

let plan_pin_glues () =
  let topo, routers, members = islands_topo ~islands:2 ~hosts:2 () in
  let h0 = fst (List.nth members 0) in
  let h1 = fst (List.nth members 2) (* first host of island 1 *) in
  check "pin fuses across islands" 5 (Partition.max_parts ~pin:[ h0; h1 ] topo);
  let plan = or_fail (Partition.plan ~pin:[ h0; h1 ] topo ~parts:2) in
  let part node = plan.Partition.owner.(Topology.node_index topo node) in
  check "pinned nodes share a partition" (part h0) (part h1);
  ignore routers

(* ------------------------------------------------------------------ *)
(* Raw driver mechanics                                                *)

let raw_ping_pong engine name =
  let link =
    Link.create engine ~name ~bandwidth_bps:10_000_000.0 ~latency:0.001 ()
  in
  let count = ref 0 in
  let pkt =
    Packet.udp
      ~src:(Netsim.Addr.of_string "10.22.0.1")
      ~dst:(Netsim.Addr.of_string "10.22.0.2")
      ~src_port:1 ~dst_port:2 payload
  in
  let bounce from p =
    incr count;
    ignore (Link.send link ~from p)
  in
  Link.set_receiver link Link.B (bounce Link.B);
  Link.set_receiver link Link.A (bounce Link.A);
  Engine.schedule engine ~at:1e-6 (fun () -> bounce Link.A pkt);
  count

let par_create_runs_all_engines () =
  let par = Par.create ~domains:2 in
  let engines = Par.engines par in
  let c0 = raw_ping_pong engines.(0) "raw0" in
  let c1 = raw_ping_pong engines.(1) "raw1" in
  Par.run_until par ~stop:0.1;
  checkb "both engines bounced" true (!c0 > 10 && !c1 > 10);
  check "same deterministic count" !c0 !c1;
  Array.iter
    (fun e -> checkf "clock forced to stop" 0.1 (Engine.now e))
    engines;
  (* Drive again: the rounds resume from the forced clocks. *)
  Par.run_until par ~stop:0.2;
  Array.iter
    (fun e -> checkf "clock forced to 0.2" 0.2 (Engine.now e))
    engines;
  checkb "made progress in the second drive" true (!c0 > 100)

let par_drain_empties () =
  let par = Par.create ~domains:3 in
  let fired = Array.make 3 0 in
  Array.iteri
    (fun i e ->
      for k = 1 to 5 do
        Engine.schedule e
          ~at:(float_of_int k *. 0.01)
          (fun () -> fired.(i) <- fired.(i) + 1)
      done)
    (Par.engines par);
  Par.run par;
  Array.iter (fun n -> check "all timers fired" 5 n) fired;
  Array.iter (fun e -> check "drained" 0 (Engine.pending e)) (Par.engines par)

let par_error_reraised () =
  let par = Par.create ~domains:2 in
  let engines = Par.engines par in
  let c0 = raw_ping_pong engines.(0) "rawerr" in
  Engine.schedule engines.(1) ~at:0.01 (fun () -> failwith "boom");
  (try
     Par.run_until par ~stop:0.5;
     Alcotest.fail "error was swallowed"
   with Failure m -> checks "the worker's exception" "boom" m);
  checkb "partition 0 still made progress" true (!c0 > 0)

(* Partition 0 busy with a timer every 50 ms up to 1 s. *)
let busy_driver parts =
  let par = Par.create ~domains:parts in
  for k = 1 to 20 do
    Engine.schedule (Par.engines par).(0) ~at:(0.05 *. float_of_int k) ignore
  done;
  par

let run_raises par ~stop expected =
  match Par.run_until par ~stop with
  | () -> Alcotest.fail "the error was swallowed"
  | exception Failure m -> checks "the first error is re-raised" expected m

(* An event error ends the run at the next barrier and no pacer fires
   after it, whether or not the partition that raised still has events
   queued: a queued event must not hold the pacers back forever, and an
   empty queue must not let the others run on to the stop time. *)
let par_event_error_ends_run parts ~queued_after () =
  let par = busy_driver parts in
  let fires = ref 0 in
  Par.add_pacer par ~period:0.1 ~until:1.0 (fun ~now:_ -> incr fires);
  let last = (Par.engines par).(parts - 1) in
  Engine.schedule last ~at:0.01 (fun () -> failwith "boom");
  if queued_after then Engine.schedule last ~at:0.15 ignore;
  run_raises par ~stop:1.0 "boom";
  check "no pacer fired after the error" 0 !fires

(* A raising pacer ends the run the same way: the pacer registered after
   it does not fire at that barrier, and nothing fires later. *)
let par_pacer_error_ends_run parts () =
  let par = busy_driver parts in
  let fires = ref 0 and seen = ref [] in
  Par.add_pacer par ~period:0.1 ~until:1.0 (fun ~now:_ ->
      incr fires;
      if !fires = 3 then failwith "pacer");
  Par.add_pacer par ~period:0.1 ~until:1.0 (fun ~now -> seen := now :: !seen);
  run_raises par ~stop:1.0 "pacer";
  Alcotest.(check (list (float 1e-9)))
    "the second pacer fired only before the error" [ 0.1; 0.2 ]
    (List.rev !seen);
  checkf "the run stopped at the failing fire" 0.3 (Par.now par)

let link_tx name =
  List.fold_left
    (fun acc dir ->
      acc
      + Option.value ~default:0
          (Registry.read_counter
             ~labels:[ ("link", name); ("dir", dir) ]
             "netsim.link.tx_packets"))
    0 [ "a_to_b"; "b_to_a" ]

(* What a pacer due at T sees, at any part count: every event at T has
   run on every partition, scheduled before or after the pacer was added,
   and no later event has; every engine clock reads T; every partition's
   batched counters are in the registry. *)
let pacer_timing parts () =
  reset ();
  let par = Par.create ~domains:parts in
  let engines = Par.engines par in
  let name i = Printf.sprintf "pace%d" i in
  let sent = Array.mapi (fun i e -> raw_ping_pong e (name i)) engines in
  let ran = Array.map (fun _ -> ref []) engines in
  let mark at label =
    Array.iteri
      (fun i e ->
        Engine.schedule e ~at (fun () -> ran.(i) := label :: !(ran.(i))))
      engines
  in
  mark 1.0 "before";
  let fired = ref 0 in
  Par.add_pacer par ~period:1.0 ~until:1.0 (fun ~now ->
      incr fired;
      checkf "fires at 1.0" 1.0 now;
      Array.iteri
        (fun i e ->
          checkf "engine clock at the fire" 1.0 (Engine.now e);
          Alcotest.(check (list string))
            "both 1.0 timers ran, the later one did not" [ "after"; "before" ]
            (List.sort compare !(ran.(i)));
          check "tx_packets flushed" !(sent.(i)) (link_tx (name i)))
        engines);
  mark 1.0 "after";
  mark (1.0 +. 1e-6) "late";
  Par.run_until par ~stop:1.5;
  check "the pacer fired once" 1 !fired;
  Array.iter
    (fun r ->
      checkb "the later timer ran after the fire" true (List.mem "late" !r))
    ran

(* [netsim.engine.wall_cpu_s] is the process cpu time of the driver's
   drives: nonzero, and never more than the cpu time around the call. *)
let wall_cpu_gauge parts () =
  let par = Par.create ~domains:parts in
  Array.iteri
    (fun i e -> ignore (raw_ping_pong e (Printf.sprintf "cpu%d" i)))
    (Par.engines par);
  let before = Sys.time () in
  Par.run_until par ~stop:20.0;
  let spent = Sys.time () -. before in
  let gauge =
    Option.value ~default:(-1.0)
      (Registry.read_gauge "netsim.engine.wall_cpu_s")
  in
  checkb (Printf.sprintf "gauge %g > 0" gauge) true (gauge > 0.0);
  checkb (Printf.sprintf "gauge %g <= %g around the call" gauge spent) true
    (gauge <= spent)

(* ------------------------------------------------------------------ *)
(* Parity: partitioned runs equal the sequential engine byte-for-byte  *)

(* One leg: fresh registry, fresh topology, workload installed after the
   shard, faults pinned and armed on their owning partition's engine.
   Without [domains] it is the reference leg: no driver at all, the plain
   engine's [Topology.run_until]. *)
let parity_leg ~islands ~hosts ?scenario ?domains ~stop () =
  reset ();
  let topo, routers, members = islands_topo ~islands ~hosts () in
  let pin =
    match scenario with
    | None -> []
    | Some sc -> or_fail (Faults.pin_targets topo sc)
  in
  let par =
    Option.map
      (fun domains ->
        let domains = min domains (Partition.max_parts ~pin topo) in
        or_fail (Par.of_topology ~pin topo ~domains))
      domains
  in
  (match scenario with
  | None -> ()
  | Some sc ->
      let engine =
        match (pin, par) with
        | first :: _, Some par -> Some (Par.engine_of par first)
        | _ -> None
      in
      ignore (Faults.arm ?engine topo sc : Faults.handle));
  let received = install_workload routers members in
  (match par with
  | None -> Topology.run_until topo ~stop
  | Some par -> Par.run_until par ~stop);
  (metrics (), Atomic.get received)

let assert_parity ~islands ~hosts ?scenario ~stop () =
  let base, base_received = parity_leg ~islands ~hosts ?scenario ~stop () in
  checkb "plain engine leg did work" true (base_received > 0);
  List.iter
    (fun domains ->
      let m, received =
        parity_leg ~islands ~hosts ?scenario ~domains ~stop ()
      in
      checks (Printf.sprintf "metrics parity at %d domains" domains) base m;
      check
        (Printf.sprintf "delivery parity at %d domains" domains)
        base_received received)
    [ 1; 2; 4 ]

let parity_plain () = assert_parity ~islands:3 ~hosts:2 ~stop:0.2 ()

let parity_with_faults () =
  let scenario =
    Faults.scenario_of_events ~seed:11
      [
        {
          Faults.ft_at = 0.02;
          ft_until = Some 0.15;
          ft_kind = Faults.Loss 0.3;
          ft_target = Some (Faults.Tlink "bridge0");
        };
        {
          Faults.ft_at = 0.05;
          ft_until = Some 0.12;
          ft_kind = Faults.Corrupt 0.2;
          ft_target = Some (Faults.Tlink "l0_1");
        };
      ]
  in
  assert_parity ~islands:3 ~hosts:2 ~scenario ~stop:0.2 ()

(* The QCheck sweep: random shapes, random fault windows, every legal
   domain count — the metrics export must never depend on the sharding. *)
let parity_prop =
  Q.Test.make ~name:"par: random topology/faults metrics parity"
    ~count:(20 * prop_scale)
    Q.(triple (int_range 2 4) (int_range 1 3) (int_range 0 2))
    (fun (islands, hosts, fault) ->
      let scenario =
        match fault with
        | 0 -> None
        | 1 ->
            Some
              (Faults.scenario_of_events ~seed:(17 + islands)
                 [
                   {
                     Faults.ft_at = 0.01;
                     ft_until = Some 0.09;
                     ft_kind = Faults.Loss 0.25;
                     ft_target = Some (Faults.Tlink "bridge0");
                   };
                 ])
        | _ ->
            Some
              (Faults.scenario_of_events ~seed:(23 + hosts)
                 [
                   {
                     Faults.ft_at = 0.015;
                     ft_until = Some 0.08;
                     ft_kind = Faults.Corrupt 0.4;
                     ft_target = Some (Faults.Tlink "l0_1");
                   };
                 ])
      in
      let base, _ = parity_leg ~islands ~hosts ?scenario ~stop:0.12 () in
      List.for_all
        (fun domains ->
          let m, _ =
            parity_leg ~islands ~hosts ?scenario ~domains ~stop:0.12 ()
          in
          String.equal base m)
        [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Experiment-shaped pinned parity: the paper's three topologies        *)

(* Audio (Fig. 5): server -link-> router -shared segment-> {client,
   sink}.  The segment glues router, client and sink into one partition;
   the backbone link is the only cut. *)
let audio_shape_parity () =
  let leg domains =
    reset ();
    let topo = Topology.create () in
    let server = Topology.add_host topo "audio-server" "10.30.0.1" in
    let router = Topology.add_host topo "router" "10.30.0.254" in
    let client = Topology.add_host topo "client" "10.30.1.2" in
    let sink = Topology.add_host topo "load-sink" "10.30.1.3" in
    ignore
      (Topology.connect topo server router ~name:"backbone" ~latency:0.002
         ~bandwidth_bps:100_000_000.0);
    let seg =
      Topology.segment topo ~name:"client-segment" ~latency:0.001
        ~bandwidth_bps:10_000_000.0 ()
    in
    ignore (Topology.attach topo seg router);
    ignore (Topology.attach topo seg client);
    ignore (Topology.attach topo seg sink);
    Topology.compute_routes topo;
    let par = or_fail (Par.of_topology topo ~domains) in
    let frames = ref 0 in
    Node.on_udp client ~port:5004 (fun _ _ -> incr frames);
    let engine = Node.engine server in
    let rec send n () =
      if n > 0 then begin
        Node.send_udp server ~dst:(Node.addr client) ~src_port:5004
          ~dst_port:5004 payload;
        Engine.schedule_after engine ~delay:0.02 (send (n - 1))
      end
    in
    Engine.schedule engine ~at:0.001 (send 20);
    Par.run_until par ~stop:0.6;
    (metrics (), !frames)
  in
  let m1, f1 = leg 1 in
  check "all frames played" 20 f1;
  let m2, f2 = leg 2 in
  check "frame parity" f1 f2;
  checks "metrics parity" m1 m2

(* MPEG/image: a transcoding chain source -> r1 -> r2 -> sink with
   distinct link latencies; splits up to four ways. *)
let mpeg_shape_parity () =
  let leg domains =
    reset ();
    let topo = Topology.create () in
    let source = Topology.add_host topo "source" "10.31.0.1" in
    let r1 = Topology.add_host topo "r1" "10.31.0.2" in
    let r2 = Topology.add_host topo "r2" "10.31.0.3" in
    let sink = Topology.add_host topo "sink" "10.31.0.4" in
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
    let par = or_fail (Par.of_topology topo ~domains) in
    let got = ref 0 in
    Node.on_udp sink ~port:1234 (fun _ _ -> incr got);
    let engine = Node.engine source in
    let rec send n () =
      if n > 0 then begin
        Node.send_udp source ~dst:(Node.addr sink) ~src_port:1234
          ~dst_port:1234 payload;
        Engine.schedule_after engine ~delay:0.005 (send (n - 1))
      end
    in
    Engine.schedule engine ~at:0.001 (send 30);
    Par.run_until par ~stop:0.5;
    (metrics (), !got)
  in
  let m1, g1 = leg 1 in
  check "every frame crossed the chain" 30 g1;
  List.iter
    (fun domains ->
      let m, g = leg domains in
      check "delivery parity" g1 g;
      checks "metrics parity" m1 m)
    [ 2; 4 ]

(* HTTP: two client LANs requesting from a server island across a
   backbone; responses fan back three packets per request. *)
let http_shape_parity () =
  let leg domains =
    reset ();
    let topo = Topology.create () in
    let gw1 = Topology.add_host topo "gw1" "10.32.1.254" in
    let gw2 = Topology.add_host topo "gw2" "10.32.2.254" in
    let sgw = Topology.add_host topo "sgw" "10.32.0.254" in
    let server = Topology.add_host topo "server" "10.32.0.1" in
    ignore
      (Topology.connect topo sgw server ~name:"server-lan" ~latency:0.0004
         ~bandwidth_bps:100_000_000.0);
    ignore
      (Topology.connect topo gw1 sgw ~name:"wan1" ~latency:0.006
         ~bandwidth_bps:20_000_000.0);
    ignore
      (Topology.connect topo gw2 sgw ~name:"wan2" ~latency:0.007
         ~bandwidth_bps:20_000_000.0);
    let clients = ref [] in
    List.iteri
      (fun i gw ->
        for c = 1 to 2 do
          let client =
            Topology.add_host topo
              (Printf.sprintf "c%d_%d" (i + 1) c)
              (Printf.sprintf "10.32.%d.%d" (i + 1) c)
          in
          ignore
            (Topology.connect topo gw client
               ~name:(Printf.sprintf "lan%d_%d" (i + 1) c)
               ~latency:(0.0005 +. (float_of_int ((i * 4) + c) *. 1e-5))
               ~bandwidth_bps:100_000_000.0);
          clients := client :: !clients
        done)
      [ gw1; gw2 ];
    Topology.compute_routes topo;
    let par = or_fail (Par.of_topology topo ~domains) in
    let responses = Atomic.make 0 in
    Node.on_udp server ~port:80 (fun node packet ->
        for _ = 1 to 3 do
          Node.send_udp node ~dst:packet.Packet.src ~src_port:80
            ~dst_port:8080 payload
        done);
    List.iter
      (fun client ->
        Node.on_udp client ~port:8080 (fun _ _ -> Atomic.incr responses);
        Node.send_udp client ~dst:(Node.addr server) ~src_port:8080
          ~dst_port:80 payload)
      !clients;
    Par.run_until par ~stop:0.4;
    (metrics (), Atomic.get responses)
  in
  let m1, r1 = leg 1 in
  check "three responses per request" 12 r1;
  List.iter
    (fun domains ->
      let m, r = leg domains in
      check "response parity" r1 r;
      checks "metrics parity" m1 m)
    [ 2; 3 ]

(* The tentpole pin: a full closed adaptation loop — paced monitor,
   policy firing mid-run, a coordinated swap rolled out over a 3-router
   chain through the partitioned network — must export byte-identical
   metrics for any domain count. The monitor re-homes onto window
   barriers ([Plane.arm ~par]), so the decision sees every partition
   flushed and the deploy capsules ride the same conduits as traffic. *)
let adapt_shape_parity () =
  Planp_runtime.Prims.install ();
  let source_v1 =
    "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + 1, ss))"
  in
  let source_v2 =
    "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + 2, ss))"
  in
  let leg domains =
    reset ();
    let topo = Topology.create () in
    let ctl = Topology.add_host topo "ctl" "10.40.0.1" in
    let r0 = Topology.add_host topo "r0" "10.40.0.254" in
    let r1 = Topology.add_host topo "r1" "10.40.1.254" in
    let r2 = Topology.add_host topo "r2" "10.40.2.254" in
    let sink = Topology.add_host topo "sink" "10.40.2.2" in
    ignore
      (Topology.connect topo ctl r0 ~name:"c0" ~latency:0.0011
         ~bandwidth_bps:100_000_000.0);
    ignore
      (Topology.connect topo r0 r1 ~name:"b01" ~latency:0.0023
         ~bandwidth_bps:100_000_000.0);
    ignore
      (Topology.connect topo r1 r2 ~name:"b12" ~latency:0.0031
         ~bandwidth_bps:100_000_000.0);
    ignore
      (Topology.connect topo r2 sink ~name:"drop" ~latency:0.0007
         ~bandwidth_bps:100_000_000.0);
    (* The managed fleet lives on leaves off each router — a swapped-in
       program consumes the UDP its node sees, so it must not sit on the
       ctl->sink forwarding path. *)
    let fleet =
      List.mapi
        (fun i (router, addr, latency) ->
          let node =
            Topology.add_host topo (Printf.sprintf "d%d" i) addr
          in
          ignore
            (Topology.connect topo router node
               ~name:(Printf.sprintf "l%d" i)
               ~latency ~bandwidth_bps:100_000_000.0);
          node)
        [
          (r0, "10.40.0.2", 0.0006);
          (r1, "10.40.1.2", 0.0008);
          (r2, "10.40.2.3", 0.0009);
        ]
    in
    Topology.compute_routes topo;
    (* Shard before any event is scheduled (the planpc ordering). *)
    let par = or_fail (Par.of_topology topo ~domains) in
    let daemons =
      List.map (fun node -> (node, Deploy.Daemon.start node ())) fleet
    in
    let controller = Deploy.Controller.create ctl () in
    let seen = ref 0 in
    Node.on_udp sink ~port:9000 (fun _ _ -> incr seen);
    (* Steady traffic across the whole chain drives the "load" signal
       over threshold; the sender lives on ctl's partition engine. *)
    let inj_engine = Par.engine_of par ctl in
    for burst = 0 to 5 do
      Engine.schedule inj_engine
        ~at:(0.01 +. (0.5 *. float_of_int burst))
        (fun () ->
          for i = 1 to 5 do
            Node.send_udp ctl ~dst:(Node.addr sink) ~src_port:(9000 + i)
              ~dst_port:9000 payload
          done)
    done;
    let policy =
      or_fail
        (Adapt.Policy.parse
           "period 0.5\nrule go: when load > 0.5 for 0.5 cooldown 60 do swap prog fast\n")
    in
    let targets = List.map Node.addr fleet in
    let env =
      {
        Adapt.Plane.de_controller = controller;
        de_backend = "jit";
        de_targets_of = (fun p -> if p = "prog" then targets else []);
        de_variant_of =
          (fun ~program ~variant ->
            if program <> "prog" then None
            else if variant = "fast" then
              Some
                { Adapt.Plane.v_source = source_v2; v_authenticated = false }
            else
              Some
                { Adapt.Plane.v_source = source_v1; v_authenticated = false });
        de_concurrency = 2;
      }
    in
    let plane =
      Adapt.Plane.arm ~env ~par
        ~active:[ ("prog", "default") ]
        ~until:4.0
        ~signals:
          [ ("load", Adapt.Monitor.Rate_of (fun () -> float_of_int !seen)) ]
        policy
    in
    Par.run_until par ~stop:6.0;
    let stats = Adapt.Plane.stats plane in
    let epochs =
      List.map (fun (_, d) -> Deploy.Daemon.active_epoch d ~name:"prog") daemons
    in
    (metrics (), !seen, stats.Adapt.Plane.st_swaps, epochs)
  in
  let m1, s1, swaps1, epochs1 = leg 1 in
  check "traffic flowed" 30 s1;
  check "the swap converged" 1 swaps1;
  Alcotest.(check (list (option int)))
    "every fleet node on the swapped epoch"
    [ Some 1; Some 1; Some 1 ]
    epochs1;
  List.iter
    (fun domains ->
      let m, s, swaps, epochs = leg domains in
      check "traffic parity" s1 s;
      check "decision parity" swaps1 swaps;
      Alcotest.(check (list (option int))) "epoch parity" epochs1 epochs;
      checks "metrics parity" m1 m)
    [ 2; 4 ]

let () =
  Alcotest.run "par"
    [
      ( "partition",
        [
          Alcotest.test_case "plan two islands" `Quick plan_two_islands;
          Alcotest.test_case "plan errors" `Quick plan_errors;
          Alcotest.test_case "segments glue" `Quick plan_segment_glues;
          Alcotest.test_case "pins glue" `Quick plan_pin_glues;
        ] );
      ( "driver",
        [
          Alcotest.test_case "raw engines run and resume" `Quick
            par_create_runs_all_engines;
          Alcotest.test_case "drain mode empties" `Quick par_drain_empties;
          Alcotest.test_case "worker errors re-raise" `Quick
            par_error_reraised;
        ]
        @ List.concat_map
            (fun parts ->
              let case name f =
                Alcotest.test_case (Printf.sprintf "%s, %d part(s)" name parts)
                  `Quick (f parts)
              in
              [
                case "event error ends the run"
                  (par_event_error_ends_run ~queued_after:true);
                case "event error fires no pacer"
                  (par_event_error_ends_run ~queued_after:false);
                case "pacer error ends the run" par_pacer_error_ends_run;
                case "pacer timing" pacer_timing;
                case "cpu gauge" wall_cpu_gauge;
              ])
            [ 1; 2 ] );
      ( "parity",
        [
          Alcotest.test_case "plain islands" `Quick parity_plain;
          Alcotest.test_case "with pinned faults" `Quick parity_with_faults;
          Alcotest.test_case "audio shape" `Quick audio_shape_parity;
          Alcotest.test_case "mpeg shape" `Quick mpeg_shape_parity;
          Alcotest.test_case "http shape" `Quick http_shape_parity;
          Alcotest.test_case "adapt closed loop" `Quick adapt_shape_parity;
          QCheck_alcotest.to_alcotest parity_prop;
        ] );
    ]
