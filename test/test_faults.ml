(* The fault-injection plane: scenario parsing, the per-fault semantics
   (flaps, loss, corruption, congestion, crash/restart, reconvergence),
   the golden parity of an empty scenario, and the hardened Reliable /
   deploy retry behaviour under faults. *)

let () = Planp_runtime.Prims.install ()

module Engine = Netsim.Engine
module Addr = Netsim.Addr
module Payload = Netsim.Payload
module Link = Netsim.Link
module Node = Netsim.Node
module Topology = Netsim.Topology
module Faults = Netsim.Faults
module Sender = Netsim.Reliable.Sender
module Receiver = Netsim.Reliable.Receiver
module Controller = Deploy.Controller
module Daemon = Deploy.Daemon

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

let fevent ?until ?target ~at kind =
  { Faults.ft_at = at; ft_until = until; ft_kind = kind; ft_target = target }

(* ---------- Link.set_up drops in-flight packets (regression) ---------- *)

let link_cut_drops_in_flight () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let link = Topology.connect topo ~latency:0.05 a b in
  Topology.compute_routes topo;
  let got = ref 0 in
  Node.on_udp b ~port:7 (fun _ _ -> incr got);
  let send () =
    Node.send_udp a ~dst:(Node.addr b) ~src_port:7 ~dst_port:7 Payload.empty
  in
  send ();
  (* Cut the cable while the packet is on the wire: it must be dropped
     and counted, not delivered later. *)
  Engine.schedule (Topology.engine topo) ~at:0.01 (fun () ->
      Link.set_up link false);
  Topology.run topo;
  check "in-flight packet not delivered" 0 !got;
  check "in-flight packet counted as drop" 1 (Link.drops link Link.A);
  (* The cleared delivery ring must still work after the link comes back:
     stale scheduler tokens may not eat real deliveries. *)
  Link.set_up link true;
  send ();
  Topology.run topo;
  check "delivered exactly once after recovery" 1 !got;
  check "no extra drops" 1 (Link.drops link Link.A)

(* ---------- scenario parsing ---------- *)

let parse_scenario_grammar () =
  let text =
    "# a comment\n\
     seed 99\n\n\
     at 1.0 until 2.5 link down uplink\n\
     at 0.5 link loss uplink 0.05\n\
     at 0.5 until 9.0 segment corrupt lan 0.01\n\
     at 3.0 until 6.0 congest backbone bandwidth 0.5 queue 0.25\n\
     at 4.0 until 6.0 node crash router\n\
     at 4.5 node crash-wipe router\n\
     at 2.5 reroute\n"
  in
  match Faults.parse_scenario text with
  | Error message -> Alcotest.failf "parse failed: %s" message
  | Ok scenario ->
      check "seed" 99 scenario.Faults.seed;
      check "events" 7 (List.length scenario.Faults.events);
      let e = List.hd scenario.Faults.events in
      checkf "at" 1.0 e.Faults.ft_at;
      checkb "until" true (e.Faults.ft_until = Some 2.5);
      checkb "kind" true (e.Faults.ft_kind = Faults.Link_down);
      checkb "target" true (e.Faults.ft_target = Some (Faults.Tlink "uplink"));
      let congest = List.nth scenario.Faults.events 3 in
      checkb "congest factors" true
        (congest.Faults.ft_kind
        = Faults.Congest { bandwidth_factor = 0.5; queue_factor = 0.25 });
      let wipe = List.nth scenario.Faults.events 5 in
      checkb "crash-wipe" true
        (wipe.Faults.ft_kind = Faults.Crash { wipe = true })

(* The example block of doc/FAULTS.md: the indented lines under
   "## Scenario files", less their indent. *)
let doc_scenario () =
  let doc = In_channel.with_open_bin "../doc/FAULTS.md" In_channel.input_all in
  let rec section = function
    | [] -> Alcotest.fail "doc/FAULTS.md: no \"## Scenario files\""
    | "## Scenario files" :: rest -> rest
    | _ :: rest -> section rest
  in
  let rec block started acc = function
    | line :: rest when String.starts_with ~prefix:"    " line ->
        block true (String.sub line 4 (String.length line - 4) :: acc) rest
    | "" :: rest -> block started ("" :: acc) rest
    | _ :: rest when not started -> block false acc rest
    | _ -> String.concat "\n" (List.rev acc)
  in
  block false [] (section (String.split_on_char '\n' doc))

let parse_doc_scenario () =
  let link name = Faults.Tlink name and node name = Faults.Tnode name in
  let expected =
    Faults.scenario_of_events ~seed:42
      [
        fevent ~at:1.0 ~until:2.5 ~target:(link "uplink") Faults.Link_down;
        fevent ~at:0.5 ~until:9.0 ~target:(link "uplink") (Faults.Loss 0.05);
        fevent ~at:0.5 ~until:9.0 ~target:(Faults.Tsegment "lan")
          (Faults.Corrupt 0.01);
        fevent ~at:3.0 ~until:6.0 ~target:(link "backbone")
          (Faults.Congest { bandwidth_factor = 0.5; queue_factor = 0.5 });
        fevent ~at:4.0 ~until:6.0 ~target:(node "router")
          (Faults.Crash { wipe = false });
        fevent ~at:4.0 ~target:(node "router") (Faults.Crash { wipe = true });
        fevent ~at:2.5 Faults.Reroute;
      ]
  in
  match Faults.parse_scenario (doc_scenario ()) with
  | Ok scenario -> checkb "the documented scenario" true (scenario = expected)
  | Error message -> Alcotest.failf "doc/FAULTS.md example: %s" message

let parse_scenario_errors () =
  let expect_error label text =
    match Faults.parse_scenario text with
    | Error message ->
        checkb (label ^ " names a line") true
          (String.length message > 0
          && String.sub message 0 4 = "line")
    | Ok _ -> Alcotest.failf "%s: expected a parse error" label
  in
  expect_error "bad rate" "at 1.0 link loss uplink 1.5\n";
  expect_error "until before at" "at 2.0 until 1.0 link down uplink\n";
  expect_error "unknown keyword" "at 1.0 link explode uplink\n";
  expect_error "bad factor" "at 1.0 until 2.0 congest x bandwidth 0.0\n";
  expect_error "trailing junk" "at 1.0 reroute zebra\n";
  (* NaN passes every range check and an infinite time never comes:
     each non-finite number is refused with its field and text. *)
  let expect_message label text message =
    match Faults.parse_scenario text with
    | Error got -> Alcotest.(check string) label message got
    | Ok _ -> Alcotest.failf "%s: expected a parse error" label
  in
  expect_message "nan start"
    "at nan until 14.0 congest lan bandwidth 0.001 queue 0.002\n"
    "line 1: at: not a finite number (nan)";
  expect_message "nan probability"
    "seed 3\nat 1.0 until 3.0 segment loss lan nan\n"
    "line 2: segment loss: not a finite number (nan)";
  expect_message "infinite end" "at 1.0 until inf link down uplink\n"
    "line 1: until: not a finite number (inf)";
  expect_message "infinite start" "at -inf link down uplink\n"
    "line 1: at: not a finite number (-inf)";
  expect_message "nan factor" "at 1.0 until 2.0 congest x queue nan\n"
    "line 1: queue: not a finite number (nan)"

let arm_rejects_unknown_target () =
  let topo = Topology.create () in
  ignore (Topology.add_host topo "a" "10.0.0.1");
  Topology.compute_routes topo;
  let scenario =
    Faults.scenario_of_events [ fevent ~at:1.0 ~target:(Faults.Tlink "nope") Faults.Link_down ]
  in
  checkb "unknown target raises" true
    (match Faults.arm topo scenario with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- empty-scenario golden parity ---------- *)

(* An empty scenario must leave the run bit-identical to no fault plane
   at all: same deliveries, same event count, same finish time. *)
let empty_scenario_golden_parity () =
  let run armed =
    let topo = Topology.create () in
    let a = Topology.add_host topo "a" "10.0.0.1" in
    let b = Topology.add_host topo "b" "10.0.0.2" in
    ignore (Topology.connect topo ~name:"wire" ~latency:0.002 a b);
    Topology.compute_routes topo;
    if armed then ignore (Faults.arm topo Faults.empty);
    let delivered = ref [] in
    let receiver =
      Receiver.listen b ~port:9 ~on_message:(fun payload ->
          delivered := Payload.get_u32 payload 0 :: !delivered)
        ()
    in
    let sender =
      Sender.connect a ~dst:(Node.addr b) ~dst_port:9 ~src_port:9 ()
    in
    for i = 0 to 39 do
      let w = Payload.Writer.create () in
      Payload.Writer.u32 w i;
      Sender.send sender (Payload.Writer.finish w)
    done;
    Topology.run topo;
    ( List.rev !delivered,
      Receiver.delivered receiver,
      Engine.events_processed (Topology.engine topo),
      Engine.now (Topology.engine topo) )
  in
  let plain = run false and armed = run true in
  checkb "bit-identical run" true (plain = armed)

(* ---------- congestion bursts ---------- *)

let congest_restores_medium () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let link =
    Topology.connect topo ~name:"backbone" ~bandwidth_bps:8e6
      ~latency:0.001 a b
  in
  Link.set_queue_capacity link 64;
  Topology.compute_routes topo;
  let scenario =
    match
      Faults.parse_scenario
        "seed 3\nat 1.0 until 2.0 congest backbone bandwidth 0.5 queue 0.25\n"
    with
    | Ok scenario -> scenario
    | Error message -> Alcotest.failf "parse: %s" message
  in
  ignore (Faults.arm topo scenario);
  Engine.schedule (Topology.engine topo) ~at:1.5 (fun () ->
      checkf "bandwidth halved inside the window" 4e6 (Link.bandwidth_bps link);
      check "queue scaled inside the window" 16 (Link.queue_capacity link));
  Topology.run_until topo ~stop:3.0;
  checkf "bandwidth restored" 8e6 (Link.bandwidth_bps link);
  check "queue restored" 64 (Link.queue_capacity link)

(* ---------- loss windows and metrics ---------- *)

let loss_window_counts_and_detaches () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let link = Topology.connect topo ~name:"wire" ~latency:0.0001 a b in
  Topology.compute_routes topo;
  let got = ref 0 in
  Node.on_udp b ~port:7 (fun _ _ -> incr got);
  let scenario =
    Faults.scenario_of_events ~seed:5
      [ fevent ~at:0.5 ~until:1.5 ~target:(Faults.Tlink "wire") (Faults.Loss 1.0) ]
  in
  let handle = Faults.arm topo scenario in
  (* 10 packets before, 10 inside, 10 after the window. *)
  List.iter
    (fun t0 ->
      for i = 0 to 9 do
        Engine.schedule (Topology.engine topo)
          ~at:(t0 +. (0.01 *. float_of_int i))
          (fun () ->
            Node.send_udp a ~dst:(Node.addr b) ~src_port:7 ~dst_port:7
              Payload.empty)
      done)
    [ 0.1; 0.7; 1.7 ];
  Topology.run topo;
  check "packets outside the window delivered" 20 !got;
  check "one fault injected" 1 (Faults.injected handle);
  checkb "impairment detached after the window" true
    (Link.impairment link = None);
  let lost =
    Obs.Registry.counter ~labels:[ ("target", "wire") ]
      "netsim.faults.lost_packets"
  in
  checkb "lost packets flushed to metrics" true (Obs.Registry.count lost >= 10)

(* ---------- crash, wipe and restart ---------- *)

let crash_wipe_and_restart_hooks () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  ignore (Topology.connect topo ~latency:0.0001 a b);
  Topology.compute_routes topo;
  let got = ref 0 in
  let install () = Node.on_udp b ~port:7 (fun _ _ -> incr got) in
  install ();
  let scenario =
    Faults.scenario_of_events ~seed:1
      [ fevent ~at:0.5 ~until:1.0 ~target:(Faults.Tnode "b")
          (Faults.Crash { wipe = true }) ]
  in
  let handle = Faults.arm topo scenario in
  let restarted = ref 0 in
  Faults.on_restart handle (fun node ->
      incr restarted;
      checkb "restart hook sees the node" true (node == b);
      install ());
  let send_at t =
    Engine.schedule (Topology.engine topo) ~at:t (fun () ->
        Node.send_udp a ~dst:(Node.addr b) ~src_port:7 ~dst_port:7
          Payload.empty)
  in
  send_at 0.2;
  (* down: dropped at the dead node *)
  send_at 0.7;
  (* back up, handler reinstalled by the restart hook *)
  send_at 1.2;
  Topology.run topo;
  check "delivered before and after the crash" 2 !got;
  check "restart hook ran once" 1 !restarted;
  checkb "node is back up" true (Node.is_up b)

(* ---------- reconvergence around dead routers ---------- *)

let reroute_around_failures () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let r1 = Topology.add_host topo "r1" "10.0.0.254" in
  let r2 = Topology.add_host topo "r2" "10.0.0.253" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let l_a1 = Topology.connect topo ~name:"a-r1" ~latency:0.001 a r1 in
  ignore (Topology.connect topo ~name:"r1-b" ~latency:0.001 r1 b);
  let l_a2 = Topology.connect topo ~name:"a-r2" ~latency:0.001 a r2 in
  ignore (Topology.connect topo ~name:"r2-b" ~latency:0.001 r2 b);
  Topology.compute_routes topo;
  let got = ref 0 in
  Node.on_udp b ~port:7 (fun _ _ -> incr got);
  (* Cut each access link in turn through the fault plane (whose events
     reconverge the routes at both window edges): whichever path was in
     use, one of the cuts forces the routes onto the other. *)
  let scenario =
    Faults.scenario_of_events
      [
        fevent ~at:0.5 ~until:1.5 ~target:(Faults.Tlink "a-r1")
          Faults.Link_down;
        fevent ~at:2.0 ~until:3.0 ~target:(Faults.Tlink "a-r2")
          Faults.Link_down;
      ]
  in
  ignore (Faults.arm topo scenario);
  let send_at t =
    Engine.schedule (Topology.engine topo) ~at:t (fun () ->
        Node.send_udp a ~dst:(Node.addr b) ~src_port:7 ~dst_port:7
          Payload.empty)
  in
  send_at 0.2;
  send_at 1.0;
  (* a-r1 down: must go via r2 *)
  send_at 2.5;
  (* a-r2 down: must go via r1 *)
  Topology.run topo;
  check "delivered around both cuts" 3 !got;
  checkb "links restored" true (Link.is_up l_a1 && Link.is_up l_a2)

let crashed_router_clears_routes () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let r = Topology.add_host topo "r" "10.0.0.254" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  ignore (Topology.connect topo ~latency:0.001 a r);
  ignore (Topology.connect topo ~latency:0.001 r b);
  Topology.compute_routes topo;
  let got = ref 0 in
  Node.on_udp b ~port:7 (fun _ _ -> incr got);
  let scenario =
    Faults.scenario_of_events
      [ fevent ~at:0.5 ~until:1.0 ~target:(Faults.Tnode "r")
          (Faults.Crash { wipe = false }) ]
  in
  ignore (Faults.arm topo scenario);
  let send_at t =
    Engine.schedule (Topology.engine topo) ~at:t (fun () ->
        Node.send_udp a ~dst:(Node.addr b) ~src_port:7 ~dst_port:7
          Payload.empty)
  in
  send_at 0.2;
  send_at 0.7;
  (* no route: the router is down *)
  send_at 1.2;
  Topology.run topo;
  check "delivered before and after the crash window" 2 !got

(* ---------- Reliable: capped backoff and the retry budget ---------- *)

let backoff_budget_aborts_cleanly () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let link = Topology.connect topo a b in
  Topology.compute_routes topo;
  ignore (Receiver.listen b ~port:9 ~on_message:(fun _ -> ()) ());
  let abort_reason = ref None in
  let sender =
    Sender.connect ~rto:0.1 ~max_rto:0.4 ~retry_budget:3
      ~on_abort:(fun reason -> abort_reason := Some reason)
      a ~dst:(Node.addr b) ~dst_port:9 ~src_port:9 ()
  in
  Link.set_up link false;
  for _ = 1 to 5 do
    Sender.send sender Payload.empty
  done;
  Topology.run topo;
  checkb "aborted" true (Sender.aborted sender);
  check "window discarded" 0 (Sender.unacked sender);
  checkb "abort reason reported" true (!abort_reason <> None);
  (* Timeout chain: 0.1 + 0.2 + 0.4 (capped) + 0.4 = exponential backoff
     with the cap, then the fourth barren timeout exhausts budget 3. *)
  checkf "abort time shows capped backoff" 1.1
    (Engine.now (Topology.engine topo));
  (* Aborted stream stays dead. *)
  Link.set_up link true;
  Sender.send sender Payload.empty;
  Topology.run topo;
  checkb "send after abort is a no-op" true (Sender.unacked sender = 0)

let backoff_resets_on_progress () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let link = Topology.connect topo ~latency:0.001 a b in
  Topology.compute_routes topo;
  let delivered = ref 0 in
  ignore (Receiver.listen b ~port:9 ~on_message:(fun _ -> incr delivered) ());
  let sender =
    Sender.connect ~rto:0.1 ~max_rto:0.4 ~retry_budget:20 a
      ~dst:(Node.addr b) ~dst_port:9 ~src_port:9 ()
  in
  (* Outage shorter than the budget: the stream must recover and deliver
     everything exactly once. *)
  Link.set_up link false;
  for _ = 1 to 10 do
    Sender.send sender Payload.empty
  done;
  Engine.schedule (Topology.engine topo) ~at:0.9 (fun () ->
      Link.set_up link true);
  Topology.run topo;
  checkb "not aborted" true (not (Sender.aborted sender));
  check "all delivered" 10 !delivered;
  check "window drained" 0 (Sender.unacked sender)

(* ---------- deploy: aborted streams surface as outcomes ---------- *)

let counter_asp =
  "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + 1, ss))"

let controller_reports_abort () =
  let topo = Topology.create () in
  let ctl = Topology.add_host topo "ctl" "10.0.0.1" in
  let target = Topology.add_host topo "target" "10.0.0.2" in
  let link = Topology.connect topo ctl target in
  Topology.compute_routes topo;
  ignore (Daemon.start target ());
  let controller =
    Controller.create ~rto:0.1 ~max_rto:0.4 ~retry_budget:3 ctl ()
  in
  Link.set_up link false;
  let result = ref None in
  Controller.deploy controller ~target:(Node.addr target) ~name:"counter"
    ~source:counter_asp
    ~on_done:(fun outcome -> result := Some outcome)
    ();
  Topology.run topo;
  (match !result with
  | Some (Controller.Aborted { reason }) ->
      checkb "abort reason nonempty" true (String.length reason > 0)
  | Some outcome ->
      Alcotest.failf "expected Aborted, got %s"
        (Controller.outcome_to_string outcome)
  | None -> Alcotest.fail "deploy never settled");
  let aborts =
    Obs.Registry.counter ~labels:[ ("controller", "ctl") ]
      "deploy.controller.aborts"
  in
  checkb "abort counted" true (Obs.Registry.count aborts >= 1);
  (* The controller must still work against the same target afterwards:
     aborted connections may not poison later deployments. *)
  Link.set_up link true;
  let result2 = ref None in
  Controller.deploy controller ~target:(Node.addr target) ~name:"counter"
    ~source:counter_asp
    ~on_done:(fun outcome -> result2 := Some outcome)
    ();
  Topology.run topo;
  checkb "redeploy after recovery acks" true
    (match !result2 with Some (Controller.Acked _) -> true | _ -> false)

(* ---------- property: streams finish or abort under any scenario ---------- *)

(* Random bounded fault scenarios (loss, flaps, router crashes,
   congestion -- not corruption: Reliable has no checksum, so a corrupted
   ACK is indistinguishable from a real one by design) against a relay
   topology.  Whatever happens, a budgeted stream must end in exactly one
   of two states: everything delivered in order exactly once, or cleanly
   aborted with an empty window.  No hung windows, no duplicates. *)

let gen_scenario =
  QCheck.Gen.(
    let time = float_bound_inclusive 3.0 in
    let duration = map (fun d -> 0.1 +. d) (float_bound_inclusive 1.5) in
    let bounded_event =
      oneof
        [
          map2
            (fun at d ->
              fevent ~at ~until:(at +. d)
                ~target:(Faults.Tlink (if int_of_float (d *. 10.) mod 2 = 0 then "left" else "right"))
                Faults.Link_down)
            time duration;
          map3
            (fun at d rate ->
              fevent ~at ~until:(at +. d) ~target:(Faults.Tlink "left")
                (Faults.Loss (0.4 *. rate)))
            time duration (float_bound_inclusive 1.0);
          map2
            (fun at d ->
              fevent ~at ~until:(at +. d) ~target:(Faults.Tnode "router")
                (Faults.Crash { wipe = false }))
            time duration;
          map2
            (fun at d ->
              fevent ~at ~until:(at +. d) ~target:(Faults.Tlink "right")
                (Faults.Congest { bandwidth_factor = 0.3; queue_factor = 0.5 }))
            time duration;
          map (fun at -> fevent ~at Faults.Reroute) time;
        ]
    in
    let permanent_cut =
      map
        (fun at -> fevent ~at ~target:(Faults.Tlink "left") Faults.Link_down)
        time
    in
    map3
      (fun seed events cut ->
        Faults.scenario_of_events ~seed (events @ cut))
      (int_bound 10_000)
      (list_size (int_range 0 6) bounded_event)
      (oneof [ return []; map (fun e -> [ e ]) permanent_cut ]))

let prop_stream_finishes_or_aborts =
  QCheck.Test.make ~count:60 ~name:"reliable stream finishes or aborts under faults"
    (QCheck.make gen_scenario)
    (fun scenario ->
      let topo = Topology.create () in
      let a = Topology.add_host topo "a" "10.0.0.1" in
      let router = Topology.add_host topo "router" "10.0.0.254" in
      let b = Topology.add_host topo "b" "10.0.0.2" in
      ignore (Topology.connect topo ~name:"left" ~latency:0.002 a router);
      ignore (Topology.connect topo ~name:"right" ~latency:0.002 router b);
      Topology.compute_routes topo;
      ignore (Faults.arm topo scenario);
      let delivered = ref [] in
      let receiver =
        Receiver.listen b ~port:9 ~on_message:(fun payload ->
            delivered := Payload.get_u32 payload 0 :: !delivered)
          ()
      in
      let sent = 20 in
      let sender =
        Sender.connect ~rto:0.05 ~max_rto:0.5 ~retry_budget:8 a
          ~dst:(Node.addr b) ~dst_port:9 ~src_port:9 ()
      in
      for i = 0 to sent - 1 do
        let w = Payload.Writer.create () in
        Payload.Writer.u32 w i;
        Sender.send sender (Payload.Writer.finish w)
      done;
      (* The engine must drain: no hung timers, no forever-rearmed
         retransmission loops. *)
      Topology.run ~limit:2_000_000 topo;
      let order = List.rev !delivered in
      let in_order_prefix =
        List.for_all2 ( = ) order (List.init (List.length order) Fun.id)
      in
      let drained = Sender.unacked sender = 0 in
      let complete = Receiver.delivered receiver = sent in
      if not in_order_prefix then
        QCheck.Test.fail_report "delivery out of order or duplicated";
      if not drained then QCheck.Test.fail_report "hung window";
      if Sender.aborted sender then true
      else if complete then true
      else
        QCheck.Test.fail_reportf
          "stream neither complete (%d/%d) nor aborted"
          (Receiver.delivered receiver)
          sent)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_stream_finishes_or_aborts ]
  in
  Alcotest.run "faults"
    [
      ( "link",
        [
          Alcotest.test_case "cut drops in-flight packets" `Quick
            link_cut_drops_in_flight;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "grammar round-trip" `Quick parse_scenario_grammar;
          Alcotest.test_case "doc example parses" `Quick parse_doc_scenario;
          Alcotest.test_case "errors name the line" `Quick
            parse_scenario_errors;
          Alcotest.test_case "arm rejects unknown targets" `Quick
            arm_rejects_unknown_target;
          Alcotest.test_case "empty scenario golden parity" `Quick
            empty_scenario_golden_parity;
        ] );
      ( "faults",
        [
          Alcotest.test_case "congestion restores the medium" `Quick
            congest_restores_medium;
          Alcotest.test_case "loss window counts and detaches" `Quick
            loss_window_counts_and_detaches;
          Alcotest.test_case "crash-wipe and restart hooks" `Quick
            crash_wipe_and_restart_hooks;
          Alcotest.test_case "reroutes around failures" `Quick
            reroute_around_failures;
          Alcotest.test_case "crashed router clears routes" `Quick
            crashed_router_clears_routes;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "budget aborts cleanly with capped backoff"
            `Quick backoff_budget_aborts_cleanly;
          Alcotest.test_case "backoff resets on progress" `Quick
            backoff_resets_on_progress;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "controller reports aborted streams" `Quick
            controller_reports_abort;
        ] );
      ("properties", qsuite);
    ]
