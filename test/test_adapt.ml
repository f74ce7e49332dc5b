(* The closed-loop adaptation plane: EWMA signals, the condition monitor,
   the policy grammar, the plane's hold/hysteresis/guard semantics against
   a real deploy daemon, and the experiment wirings — empty-policy golden
   parity and adaptive-beats-static under faults the static ASPs cannot
   see. *)

let () = Planp_runtime.Prims.install ()

module Engine = Netsim.Engine
module Node = Netsim.Node
module Topology = Netsim.Topology
module Par = Netsim.Par_engine
module Faults = Netsim.Faults
module Registry = Obs.Registry
module Signal = Adapt.Signal
module Monitor = Adapt.Monitor
module Policy = Adapt.Policy
module Plane = Adapt.Plane

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let fevent ?until ?target ~at kind =
  { Faults.ft_at = at; ft_until = until; ft_kind = kind; ft_target = target }

(* ---------- signals ---------- *)

let signal_ewma () =
  let s = Signal.create ~alpha:0.5 "s" in
  checkf "zero before first sample" 0.0 (Signal.value s);
  Signal.push s 10.0;
  checkf "first sample seeds" 10.0 (Signal.value s);
  Signal.push s 20.0;
  checkf "ewma halves the step" 15.0 (Signal.value s);
  checkf "last is raw" 20.0 (Signal.last s);
  check "two samples" 2 (Signal.samples s);
  checkb "alpha 0 rejected" true
    (try
       ignore (Signal.create ~alpha:0.0 "bad");
       false
     with Invalid_argument _ -> true);
  checkb "alpha > 1 rejected" true
    (try
       ignore (Signal.create ~alpha:1.5 "bad");
       false
     with Invalid_argument _ -> true)

(* ---------- monitor ---------- *)

(* A counter bumped by scheduled events; the monitor must see exact
   per-tick rates (including the driver's flush of batched metrics,
   covered end-to-end by the experiment tests below). *)
let monitor_ticks_and_rates () =
  let par = Par.create ~domains:1 in
  let engine = (Par.engines par).(0) in
  let registry = Registry.create () in
  let c = Registry.counter ~registry ~labels:[ ("t", "mon") ] "test.ticks" in
  (* +10 per second for the first 3 seconds. *)
  for i = 0 to 29 do
    Engine.schedule engine ~at:(0.1 *. float_of_int i) (fun () ->
        Registry.incr c)
  done;
  let mon = Monitor.create ~registry ~period:1.0 ~until:5.0 () in
  let rate = Monitor.watch mon ~alpha:1.0 ~name:"rate" (Monitor.Counter_rate c) in
  let direct =
    Monitor.watch mon ~alpha:1.0 ~name:"direct"
      (Monitor.Sample (fun () -> 7.0))
  in
  checkb "duplicate name rejected" true
    (try
       ignore (Monitor.watch mon ~name:"rate" (Monitor.Sample (fun () -> 0.0)));
       false
     with Invalid_argument _ -> true);
  let seen = ref [] in
  Monitor.on_tick mon (fun ~now -> seen := now :: !seen);
  Monitor.start mon par;
  Monitor.start mon par;
  (* idempotent *)
  Par.run par;
  check "five ticks in [1;5]" 5 (Monitor.ticks mon);
  check "hook ran every tick" 5 (List.length !seen);
  (* Last second is idle, so the unsmoothed rate ends at 0; the raw
     samples walked through 10/s while the counter was climbing. *)
  checkf "rate settles to idle" 0.0 (Signal.value rate);
  checkf "plain sample" 7.0 (Signal.value direct);
  check "adapt.monitor.ticks counted" 5
    (Option.value ~default:0 (Registry.read_counter ~registry "adapt.monitor.ticks"));
  (* The signal gauge is registered and samples the smoothed value. *)
  checkf "adapt.signal.value gauge" 7.0
    (Option.value ~default:(-1.0)
       (Registry.read_gauge ~registry
          ~labels:[ ("signal", "direct") ]
          "adapt.signal.value"))

(* ---------- policy grammar ---------- *)

let policy_parse_roundtrip () =
  let text =
    "# comment\n\
     period 0.25\n\
     alpha 0.6\n\n\
     rule degrade: when drop_rate > 5 and goodput < 40 for 1.5 cooldown 8 \
     do swap audio-router conservative\n\
     rule shed: when loss_rate >= 50 for 2 do undeploy mpeg-filter\n\
     rule tune: when queue_delay > 0.25 for 1 do retune buffer 0.5\n\
     rule bail: when retry_rate > 20 for 5 do escalate \"retry storm\"\n\
     guard goodput window 4 min-ratio 0.5\n"
  in
  match Policy.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
      checkf "period" 0.25 p.Policy.period;
      checkf "alpha" 0.6 p.Policy.alpha;
      check "four rules" 4 (List.length p.Policy.rules);
      checkb "not empty" false (Policy.is_empty p);
      Alcotest.(check (list string))
        "signals referenced (sorted, deduped)"
        [ "drop_rate"; "goodput"; "loss_rate"; "queue_delay"; "retry_rate" ]
        (Policy.signals_referenced p);
      let degrade = List.hd p.Policy.rules in
      checkf "hold" 1.5 degrade.Policy.rl_hold;
      checkf "cooldown" 8.0 degrade.Policy.rl_cooldown;
      (match degrade.Policy.rl_pred with
      | Policy.All
          [
            Policy.Cmp { signal = s1; _ }; Policy.Cmp { signal = s2; _ };
          ] ->
          Alcotest.(check string) "conjunct 1" "drop_rate" s1;
          Alcotest.(check string) "conjunct 2" "goodput" s2
      | _ -> Alcotest.fail "expected a two-way conjunction");
      (match (List.nth p.Policy.rules 3).Policy.rl_action with
      | Policy.Escalate { reason } ->
          Alcotest.(check string) "quoted reason" "retry storm" reason
      | _ -> Alcotest.fail "expected escalate");
      match p.Policy.guard with
      | Some g ->
          Alcotest.(check string) "guard signal" "goodput" g.Policy.g_signal;
          checkf "guard window" 4.0 g.Policy.g_window;
          checkf "guard ratio" 0.5 g.Policy.g_min_ratio
      | None -> Alcotest.fail "expected a guard"

(* The example block of doc/ADAPTATION.md: the fenced lines under
   "## Policy files". *)
let doc_policy () =
  let doc =
    In_channel.with_open_bin "../doc/ADAPTATION.md" In_channel.input_all
  in
  let rec skip_to marker = function
    | [] -> Alcotest.failf "doc/ADAPTATION.md: no %S" marker
    | line :: rest when line = marker -> rest
    | _ :: rest -> skip_to marker rest
  in
  let rec fenced acc = function
    | [] | "```" :: _ -> String.concat "\n" (List.rev acc)
    | line :: rest -> fenced (line :: acc) rest
  in
  String.split_on_char '\n' doc
  |> skip_to "## Policy files" |> skip_to "```" |> fenced []

let policy_parse_doc () =
  let cmp signal cmp threshold = Policy.Cmp { signal; cmp; threshold } in
  let rule ?(cooldown = 0.0) rl_name rl_pred rl_hold rl_action =
    { Policy.rl_name; rl_pred; rl_hold; rl_cooldown = cooldown; rl_action }
  in
  let swap variant = Policy.Swap { program = "audio-router"; variant } in
  let expected =
    {
      Policy.period = 0.5;
      alpha = 0.4;
      rules =
        [
          rule ~cooldown:8.0 "degrade" (cmp "drop_rate" Gt 5.0) 1.0
            (swap "conservative");
          rule "recover"
            (Policy.All [ cmp "drop_rate" Lt 0.5; cmp "goodput" Gt 40.0 ])
            4.0 (swap "default");
          rule "shed" (cmp "drop_rate" Gt 50.0) 2.0
            (Policy.Undeploy { program = "mpeg-filter" });
          rule "tune" (cmp "queue_delay" Gt 0.25) 1.0
            (Policy.Retune { param = "buffer"; value = 0.5 });
          rule "bail" (cmp "retry_rate" Gt 20.0) 5.0
            (Policy.Escalate { reason = "retry storm" });
        ];
      guard =
        Some { Policy.g_signal = "goodput"; g_window = 4.0; g_min_ratio = 0.5 };
    }
  in
  match Policy.parse (doc_policy ()) with
  | Ok policy -> checkb "the documented policy" true (policy = expected)
  | Error msg -> Alcotest.failf "doc/ADAPTATION.md example: %s" msg

let policy_parse_errors () =
  let expect_line n text =
    match Policy.parse text with
    | Ok _ -> Alcotest.fail "parse should have failed"
    | Error msg ->
        let prefix = Printf.sprintf "line %d:" n in
        checkb
          (Printf.sprintf "error names line %d (got %S)" n msg)
          true
          (String.length msg >= String.length prefix
          && String.sub msg 0 (String.length prefix) = prefix)
  in
  expect_line 1 "bogus directive\n";
  expect_line 2 "period 0.5\nrule x: if drop_rate > 1 for 1 do swap a b\n";
  expect_line 3 "period 0.5\n# fine\nrule x: when s !! 1 for 1 do swap a b\n";
  expect_line 1 "rule x: when s > nope for 1 do swap a b\n";
  expect_line 1 "guard g window 4\n";
  expect_line 1 "period zero\n";
  (* Malformed when/for/do shapes. *)
  expect_line 1 "rule x: when s > 1 do swap a b\n";
  expect_line 1 "rule x: when s > 1 for 1 cooldown 2\n";
  expect_line 1 "rule x: when s > 1 for 1 do swap a\n";
  (* Duplicate rule names: the second definition is the offence. *)
  expect_line 3
    "period 0.5\n\
     rule x: when s > 1 for 1 do swap a b\n\
     rule x: when s < 1 for 1 do swap a c\n";
  (* Out-of-range numbers: nan slips past a bare [< 0.0] test, and
     infinite holds/cooldowns/periods can never elapse. *)
  expect_line 1 "rule x: when s > 1 for nan do swap a b\n";
  expect_line 1 "rule x: when s > 1 for 1 cooldown nan do swap a b\n";
  expect_line 1 "rule x: when s > 1 for 1 cooldown inf do swap a b\n";
  expect_line 1 "rule x: when s > 1 for 1 cooldown -3 do swap a b\n";
  expect_line 2 "alpha 0.5\nperiod inf\n";
  expect_line 1 "guard g window inf min-ratio 0.5\n";
  expect_line 1 "guard g window 4 min-ratio nan\n";
  (* A nan threshold compares false every tick: the rule could never
     fire. *)
  expect_line 1 "rule r: when x > nan for 0 do escalate a\n";
  expect_line 2
    "period 0.5\nrule r: when x < 1 and y >= nan for 0 do escalate a\n";
  (* An infinite bound ignores the signal altogether. *)
  expect_line 1 "rule r: when x > inf for 0 do escalate a\n";
  expect_line 2
    "period 0.5\nrule r: when x < 1 and y >= -inf for 0 do escalate a\n";
  (* A non-finite retune value would reach its parameter as 0 once
     truncated to an int. *)
  expect_line 1 "rule r: when x > 1 for 0 do retune mono16_above nan\n";
  expect_line 1 "rule r: when x > 1 for 0 do retune mono16_above inf\n";
  expect_line 2
    "period 0.5\nrule r: when x > 1 for 0 do retune mono16_above -inf\n"

let policy_empty () =
  checkb "empty is empty" true (Policy.is_empty Policy.empty);
  match Policy.parse "# nothing but comments\n\nperiod 1.0\n" with
  | Ok p -> checkb "no rules, no guard -> empty" true (Policy.is_empty p)
  | Error msg -> Alcotest.fail msg

(* ---------- the plane against a real daemon ---------- *)

(* A deployable no-op forwarder (passes the delivery verifier). *)
let forwarder note =
  Printf.sprintf
    {|-- test forwarder (%s)
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (OnRemote(network, p); (ps, ss))
|}
    note

(* Swap to a "bad" variant whose KPI regresses inside the guard window:
   the guard must roll back to the previous epoch, quarantine the
   variant, and the rule must never fire again (hysteresis while active,
   quarantine after the rollback). *)
let plane_guard_rollback_and_quarantine () =
  let topo = Topology.create () in
  let ctl_node = Topology.add_host topo "ctl" "10.9.0.1" in
  let target = Topology.add_host topo "target" "10.9.0.2" in
  ignore (Topology.connect topo ~latency:0.001 ctl_node target);
  Topology.compute_routes topo;
  let daemon = Deploy.Daemon.start target () in
  let ctl = Deploy.Controller.create ctl_node () in
  let acked = ref false in
  Deploy.Controller.deploy ctl ~target:(Node.addr target) ~name:"prog"
    ~source:(forwarder "good")
    ~on_done:(function
      | Deploy.Controller.Acked _ -> acked := true
      | outcome ->
          Alcotest.failf "initial deploy: %s"
            (Deploy.Controller.outcome_to_string outcome))
    ();
  (* Bounded: draining the queue would run to the deploy timeout event. *)
  Topology.run_until topo ~stop:1.0;
  checkb "initial deploy acked" true !acked;
  let kpi = ref 1.0 in
  let engine = Topology.engine topo in
  (* Healthy until 2 s; the rule's condition turns true at 2 s; the KPI
     collapses further at 3.5 s, inside the guard window of the swap the
     rule triggers. *)
  Engine.schedule engine ~at:2.0 (fun () -> kpi := 0.2);
  Engine.schedule engine ~at:3.5 (fun () -> kpi := 0.05);
  let policy =
    match
      Policy.parse
        "period 0.25\n\
         alpha 1\n\
         rule bad: when kpi < 0.5 for 0.25 cooldown 1 do swap prog bad\n\
         guard kpi window 2 min-ratio 0.9\n"
    with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let env =
    {
      Plane.de_controller = ctl;
      de_backend = "jit";
      de_targets_of =
        (fun program ->
          if program = "prog" then [ Node.addr target ] else []);
      de_variant_of =
        (fun ~program ~variant ->
          if program = "prog" && variant = "bad" then
            Some { Plane.v_source = forwarder "bad"; v_authenticated = false }
          else None);
      de_concurrency = 2;
    }
  in
  let par = Result.get_ok (Par.of_topology topo ~domains:1) in
  let plane =
    Plane.arm ~env
      ~active:[ ("prog", "good") ]
      ~par ~until:10.0
      ~signals:[ ("kpi", Monitor.Sample (fun () -> !kpi)) ]
      policy
  in
  Par.run par;
  let stats = Plane.stats plane in
  check "rule fired exactly once" 1 stats.Plane.st_fired;
  check "one acknowledged swap" 1 stats.Plane.st_swaps;
  check "one guard check" 1 stats.Plane.st_guard_checks;
  check "one rollback" 1 stats.Plane.st_rollbacks;
  Alcotest.(check (option string))
    "active variant restored" (Some "good")
    (Plane.active_variant plane "prog");
  (* The daemon really runs the rolled-back epoch: the active program is
     the original source, not the bad variant. *)
  (match Deploy.Daemon.active_program daemon ~name:"prog" with
  | Some _ -> ()
  | None -> Alcotest.fail "no active program after rollback");
  checkb "events recorded the story" true (List.length stats.Plane.st_events >= 2);
  check "metric: adapt.rollbacks" 1
    (Option.value ~default:0 (Registry.read_counter "adapt.rollbacks"));
  check "metric: adapt.rules.fired{rule=bad}" 1
    (Option.value ~default:0
       (Registry.read_counter ~labels:[ ("rule", "bad") ] "adapt.rules.fired"))

(* A swap that holds: the rule keeps its condition true forever, but once
   the variant is live, re-firing is suppressed without consuming the
   cooldown. *)
let plane_hysteresis_suppresses_refire () =
  let topo = Topology.create () in
  let ctl_node = Topology.add_host topo "ctl" "10.9.1.1" in
  let target = Topology.add_host topo "target" "10.9.1.2" in
  ignore (Topology.connect topo ~latency:0.001 ctl_node target);
  Topology.compute_routes topo;
  ignore (Deploy.Daemon.start target ());
  let ctl = Deploy.Controller.create ctl_node () in
  Deploy.Controller.deploy ctl ~target:(Node.addr target) ~name:"prog"
    ~source:(forwarder "v1")
    ~on_done:(fun _ -> ())
    ();
  Topology.run_until topo ~stop:1.0;
  let policy =
    match
      Policy.parse
        "period 0.25\n\
         alpha 1\n\
         rule go: when x > 0 for 0 cooldown 0.5 do swap prog v2\n"
    with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let env =
    {
      Plane.de_controller = ctl;
      de_backend = "jit";
      de_targets_of = (fun _ -> [ Node.addr target ]);
      de_variant_of =
        (fun ~program:_ ~variant ->
          if variant = "v2" then
            Some { Plane.v_source = forwarder "v2"; v_authenticated = false }
          else None);
      de_concurrency = 2;
    }
  in
  let par = Result.get_ok (Par.of_topology topo ~domains:1) in
  let plane =
    Plane.arm ~env
      ~active:[ ("prog", "v1") ]
      ~par ~until:8.0
      ~signals:[ ("x", Monitor.Sample (fun () -> 1.0)) ]
      policy
  in
  Par.run par;
  let stats = Plane.stats plane in
  check "single firing despite ~32 eligible ticks" 1 stats.Plane.st_fired;
  check "single swap" 1 stats.Plane.st_swaps;
  Alcotest.(check (option string))
    "v2 live" (Some "v2")
    (Plane.active_variant plane "prog")

(* A controller and a three-daemon fleet behind one router, and the
   deploy env that stages "prog" over it (every variant a forwarder). *)
let fleet_topology () =
  let topo = Topology.create () in
  let ctl_node = Topology.add_host topo "ctl" "10.9.2.1" in
  let router = Topology.add_host topo "router" "10.9.2.254" in
  ignore (Topology.connect topo ~latency:0.001 ctl_node router);
  let daemons =
    List.init 3 (fun i ->
        let host =
          Topology.add_host topo
            (Printf.sprintf "h%d" i)
            (Printf.sprintf "10.9.3.%d" (i + 1))
        in
        ignore (Topology.connect topo ~latency:0.001 router host);
        Deploy.Daemon.start host ())
  in
  Topology.compute_routes topo;
  let ctl = Deploy.Controller.create ctl_node () in
  let targets = List.map (fun d -> Node.addr (Deploy.Daemon.node d)) daemons in
  let env =
    {
      Plane.de_controller = ctl;
      de_backend = "jit";
      de_targets_of = (fun p -> if p = "prog" then targets else []);
      de_variant_of =
        (fun ~program ~variant ->
          if program = "prog" then
            Some { Plane.v_source = forwarder variant; v_authenticated = false }
          else None);
      de_concurrency = 2;
    }
  in
  (topo, env, daemons)

let parse_policy text =
  match Policy.parse text with Ok p -> p | Error msg -> Alcotest.fail msg

let runs_nothing daemon =
  Deploy.Daemon.active_program daemon ~name:"prog" = None

(* Ship "v1" of "prog" to the whole fleet and check every node ACKed. *)
let deploy_baseline topo env =
  let baseline = ref [] in
  Deploy.Controller.rollout env.Plane.de_controller
    ~targets:(env.Plane.de_targets_of "prog")
    ~name:"prog" ~source:(forwarder "v1")
    ~on_done:(fun outcomes -> baseline := outcomes)
    ();
  Topology.run_until topo ~stop:1.0;
  check "baseline acked everywhere" 3
    (List.length
       (List.filter
          (fun (_, o) ->
            match o with Deploy.Controller.Acked _ -> true | _ -> false)
          !baseline))

(* The undeploy action retires the program on every fleet node. *)
let plane_undeploy_retires_fleet () =
  let topo, env, daemons = fleet_topology () in
  deploy_baseline topo env;
  let policy =
    parse_policy
      "period 0.25
rule off: when x > 0 for 0.25 cooldown 60 do undeploy prog
"
  in
  let par = Result.get_ok (Par.of_topology topo ~domains:1) in
  let plane =
    Plane.arm ~env
      ~active:[ ("prog", "v1") ]
      ~par ~until:4.0
      ~signals:[ ("x", Monitor.Sample (fun () -> 1.0)) ]
      policy
  in
  Par.run par;
  let stats = Plane.stats plane in
  check "one undeploy" 1 stats.Plane.st_undeploys;
  Alcotest.(check (option string))
    "no active variant" None
    (Plane.active_variant plane "prog");
  List.iter
    (fun d -> checkb "daemon runs nothing" true (runs_nothing d))
    daemons;
  checkb "narrated as a fleet retirement" true
    (List.exists
       (fun ev ->
         ev.Plane.ev_what = "undeploy prog"
         && ev.Plane.ev_note = "fleet of 3 retired")
       stats.Plane.st_events)

(* The plane believes a baseline is live that its controller never
   shipped (the shape of test_par's adapt parity run), so the swap is
   every node's first install. A guard regression must then undeploy
   the staged nodes: there is no previous version to roll back to. *)
let plane_guard_restores_first_install () =
  let topo, env, daemons = fleet_topology () in
  let kpi = ref 1.0 in
  Engine.schedule (Topology.engine topo) ~at:1.0 (fun () -> kpi := 0.1);
  let policy =
    parse_policy
      "period 0.25
\
       alpha 1
\
       rule go: when kpi > 0 for 0.25 cooldown 60 do swap prog fast
\
       guard kpi window 1 min-ratio 0.9
"
  in
  let par = Result.get_ok (Par.of_topology topo ~domains:1) in
  let plane =
    Plane.arm ~env
      ~active:[ ("prog", "default") ]
      ~par ~until:4.0
      ~signals:[ ("kpi", Monitor.Sample (fun () -> !kpi)) ]
      policy
  in
  Par.run par;
  let stats = Plane.stats plane in
  check "the swap converged" 1 stats.Plane.st_swaps;
  check "one guard check" 1 stats.Plane.st_guard_checks;
  check "one rollback" 1 stats.Plane.st_rollbacks;
  List.iter
    (fun d -> checkb "staged daemon runs nothing" true (runs_nothing d))
    daemons;
  Alcotest.(check (option string))
    "no variant live" None
    (Plane.active_variant plane "prog")

(* A swap whose rollout fails by timeout leaves the fleet on one epoch:
   the node that cannot be reached times out, the nodes that ACKed are
   restored, and the pre-swap variant stays the active one (regression:
   only a NAK restored them, leaving a mixed fleet). *)
let plane_timeout_keeps_fleet_on_one_epoch () =
  let topo, env, daemons = fleet_topology () in
  deploy_baseline topo env;
  let h1 = Deploy.Daemon.node (List.nth daemons 1) in
  List.iter
    (fun (link, a, b) -> if a == h1 || b == h1 then Netsim.Link.set_up link false)
    (Topology.link_endpoints topo);
  let policy =
    parse_policy "period 0.25\nrule go: when x > 0 for 0.25 cooldown 600 do swap prog v2\n"
  in
  let par = Result.get_ok (Par.of_topology topo ~domains:1) in
  let plane =
    Plane.arm ~env
      ~active:[ ("prog", "v1") ]
      ~par ~until:80.0
      ~signals:[ ("x", Monitor.Sample (fun () -> 1.0)) ]
      policy
  in
  Par.run par;
  let stats = Plane.stats plane in
  check "one failed swap" 1 stats.Plane.st_failed_swaps;
  check "no converged swap" 0 stats.Plane.st_swaps;
  List.iter
    (fun d ->
      check "fleet on epoch 1" 1
        (Option.value ~default:0 (Deploy.Daemon.active_epoch d ~name:"prog")))
    daemons;
  Alcotest.(check (option string))
    "pre-swap variant live" (Some "v1")
    (Plane.active_variant plane "prog")

let plane_requires_wired_signals () =
  let par = Par.create ~domains:1 in
  let policy =
    match
      Policy.parse "rule r: when ghost > 1 for 1 do escalate boo\n"
    with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  checkb "unwired signal rejected" true
    (try
       ignore (Plane.arm ~par ~until:1.0 ~signals:[] policy);
       false
     with Invalid_argument _ -> true)

let plane_retune_and_escalate () =
  let par = Par.create ~domains:1 in
  let tuned = ref [] and escalated = ref [] in
  let policy =
    match
      Policy.parse
        "period 0.5\n\
         rule tune: when x > 0 for 0 cooldown 10 do retune buffer 0.25\n\
         rule bail: when x > 0 for 1 cooldown 10 do escalate \"x stuck high\"\n"
    with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let plane =
    Plane.arm ~par ~until:4.0
      ~on_retune:(fun ~param ~value -> tuned := (param, value) :: !tuned)
      ~on_escalate:(fun ~reason -> escalated := reason :: !escalated)
      ~signals:[ ("x", Monitor.Sample (fun () -> 1.0)) ]
      policy
  in
  Par.run par;
  let stats = Plane.stats plane in
  Alcotest.(check (list (pair string (float 1e-9))))
    "retune delivered once" [ ("buffer", 0.25) ] !tuned;
  Alcotest.(check (list string))
    "escalation delivered once" [ "x stuck high" ] !escalated;
  check "retunes counted" 1 stats.Plane.st_retunes;
  check "escalations counted" 1 stats.Plane.st_escalations

(* ---------- empty-policy golden parity ---------- *)

(* An armed-but-empty adaptation policy must leave the audio experiment
   bit-identical to no adaptation plane at all (the Faults precedent):
   idle monitors are not "cheap", they do not exist. *)
let empty_policy_golden_parity () =
  let run adaptation =
    Registry.reset Registry.default;
    Asp.Audio_experiment.run
      (Asp.Audio_experiment.quick_config ~deploy:Asp.Deploy_mode.In_band ?adaptation ())
  in
  let base = run None in
  let armed = run (Some Policy.empty) in
  check "frames sent" base.Asp.Audio_experiment.frames_sent
    armed.Asp.Audio_experiment.frames_sent;
  check "frames received" base.Asp.Audio_experiment.frames_received
    armed.Asp.Audio_experiment.frames_received;
  check "segment drops" base.Asp.Audio_experiment.segment_drops
    armed.Asp.Audio_experiment.segment_drops;
  check "silent frames" base.Asp.Audio_experiment.silent_frames
    armed.Asp.Audio_experiment.silent_frames;
  checkb "wire series identical" true
    (base.Asp.Audio_experiment.series = armed.Asp.Audio_experiment.series);
  checkb "wire quality counts identical" true
    (base.Asp.Audio_experiment.wire_quality_counts
    = armed.Asp.Audio_experiment.wire_quality_counts);
  match armed.Asp.Audio_experiment.adaptation with
  | None -> Alcotest.fail "armed run should report adaptation stats"
  | Some stats ->
      check "zero ticks: nothing was scheduled" 0 stats.Plane.st_ticks;
      check "zero firings" 0 stats.Plane.st_fired

(* ---------- adaptive vs static under faults ---------- *)

(* A congestion fault shrinks the client segment to 1/10th capacity: the
   static router ASP reads offered load (blind to capacity) and never
   degrades; the closed loop sees the drop rate and swaps the
   conservative thresholds in, then swaps back after the fault clears. *)
let audio_adaptive_beats_static () =
  let congest =
    {
      Faults.seed = 7;
      events =
        [
          fevent ~at:8.0 ~until:30.0
            ~target:(Faults.Tsegment "client-segment")
            (Faults.Congest { bandwidth_factor = 0.1; queue_factor = 1.0 });
        ];
    }
  in
  let config adaptation =
    {
      (Asp.Audio_experiment.quick_config ~deploy:Asp.Deploy_mode.In_band
         ~faults:congest ?adaptation ())
      with
      Asp.Audio_experiment.schedule = [ (0.0, 0.0) ];
    }
  in
  Registry.reset Registry.default;
  let static = Asp.Audio_experiment.run (config None) in
  Registry.reset Registry.default;
  let adaptive =
    Asp.Audio_experiment.run (config (Some (Asp.Audio_experiment.adaptive_policy ())))
  in
  (match adaptive.Asp.Audio_experiment.adaptation with
  | None -> Alcotest.fail "no adaptation stats"
  | Some stats ->
      checkb "at least one swap"
        true (stats.Plane.st_swaps >= 1);
      check "no failed swaps" 0 stats.Plane.st_failed_swaps;
      check "no rollbacks" 0 stats.Plane.st_rollbacks);
  checkb
    (Printf.sprintf "adaptive delivers more frames (%d vs %d static)"
       adaptive.Asp.Audio_experiment.frames_received
       static.Asp.Audio_experiment.frames_received)
    true
    (adaptive.Asp.Audio_experiment.frames_received
    > static.Asp.Audio_experiment.frames_received);
  checkb
    (Printf.sprintf "adaptive drops less (%d vs %d static)"
       adaptive.Asp.Audio_experiment.segment_drops
       static.Asp.Audio_experiment.segment_drops)
    true
    (adaptive.Asp.Audio_experiment.segment_drops
    < static.Asp.Audio_experiment.segment_drops)

(* Severe congestion on the MPEG client segment: the closed loop swaps
   the router filter to the authenticated B-frame-shedding variant, and
   more I- and P-frames survive than under the static pass-through. *)
let mpeg_adaptive_protects_ip_frames () =
  let congest =
    {
      Faults.seed = 11;
      events =
        [
          fevent ~at:2.0 ~until:16.0
            ~target:(Faults.Tsegment "client-segment")
            (Faults.Congest { bandwidth_factor = 0.03; queue_factor = 1.0 });
        ];
    }
  in
  let ip_frames result =
    List.fold_left
      (fun acc (i, p, _) -> acc + i + p)
      0 result.Asp.Mpeg_experiment.client_frame_kinds
  in
  Registry.reset Registry.default;
  let static =
    Asp.Mpeg_experiment.run
      (Asp.Mpeg_experiment.default_config ~deploy:Asp.Deploy_mode.In_band
         ~faults:congest ())
  in
  Registry.reset Registry.default;
  let adaptive =
    Asp.Mpeg_experiment.run
      (Asp.Mpeg_experiment.default_config ~deploy:Asp.Deploy_mode.In_band
         ~faults:congest
         ~adaptation:(Asp.Mpeg_experiment.adaptive_policy ())
         ())
  in
  (match adaptive.Asp.Mpeg_experiment.adaptation with
  | None -> Alcotest.fail "no adaptation stats"
  | Some stats ->
      checkb "at least one swap" true (stats.Plane.st_swaps >= 1);
      check "no failed swaps" 0 stats.Plane.st_failed_swaps);
  checkb
    (Printf.sprintf "adaptive delivers more I+P frames (%d vs %d static)"
       (ip_frames adaptive) (ip_frames static))
    true
    (ip_frames adaptive > ip_frames static)

(* server1 crashes mid-run: the Modulo gateway keeps assigning new
   connections to it (each costing the client a 2 s retry); the closed
   loop sees the retry rate, swaps the failover gateway in and starts its
   health prober, which routes everything to the survivor. *)
let http_adaptive_routes_around_crash () =
  let crash =
    {
      Faults.seed = 3;
      events =
        [
          fevent ~at:4.0 ~target:(Faults.Tnode "server1")
            (Faults.Crash { wipe = false });
        ];
    }
  in
  let config adaptation =
    {
      Asp.Http_experiment.default_config with
      Asp.Http_experiment.duration = 14.0;
      warmup = 2.0;
      client_count = 4;
      trace_requests = 20_000;
      deploy = Asp.Deploy_mode.In_band;
      faults = Some crash;
      adaptation;
    }
  in
  let setup = Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit in
  Registry.reset Registry.default;
  let static = Asp.Http_experiment.run_point (config None) setup ~workers:8 in
  Registry.reset Registry.default;
  let adaptive =
    Asp.Http_experiment.run_point
      (config (Some (Asp.Http_experiment.adaptive_policy ())))
      setup ~workers:8
  in
  (match adaptive.Asp.Http_experiment.adaptation with
  | None -> Alcotest.fail "no adaptation stats"
  | Some stats ->
      checkb "at least one swap" true (stats.Plane.st_swaps >= 1);
      check "no failed swaps" 0 stats.Plane.st_failed_swaps);
  checkb
    (Printf.sprintf "adaptive completes more replies (%.1f vs %.1f static)"
       adaptive.Asp.Http_experiment.replies_per_s static.Asp.Http_experiment.replies_per_s)
    true
    (adaptive.Asp.Http_experiment.replies_per_s
    > static.Asp.Http_experiment.replies_per_s);
  checkb
    (Printf.sprintf "adaptive retries less (%d vs %d static)"
       adaptive.Asp.Http_experiment.client_retries
       static.Asp.Http_experiment.client_retries)
    true
    (adaptive.Asp.Http_experiment.client_retries
    <= static.Asp.Http_experiment.client_retries)

(* A retune rule reaches the audio distillation thresholds. *)
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
  Registry.reset Registry.default;
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
  Alcotest.run "adapt"
    [
      ( "signal",
        [ Alcotest.test_case "ewma smoothing and bounds" `Quick signal_ewma ] );
      ( "monitor",
        [
          Alcotest.test_case "ticks, rates, gauges" `Quick
            monitor_ticks_and_rates;
        ] );
      ( "policy",
        [
          Alcotest.test_case "grammar round-trip" `Quick policy_parse_roundtrip;
          Alcotest.test_case "doc example parses" `Quick policy_parse_doc;
          Alcotest.test_case "errors name the line" `Quick policy_parse_errors;
          Alcotest.test_case "emptiness" `Quick policy_empty;
        ] );
      ( "plane",
        [
          Alcotest.test_case "guard rolls back and quarantines" `Quick
            plane_guard_rollback_and_quarantine;
          Alcotest.test_case "hysteresis suppresses refire" `Quick
            plane_hysteresis_suppresses_refire;
          Alcotest.test_case "undeploy retires the fleet" `Quick
            plane_undeploy_retires_fleet;
          Alcotest.test_case "guard undeploys a first install" `Quick
            plane_guard_restores_first_install;
          Alcotest.test_case "timeout keeps the fleet on one epoch" `Quick
            plane_timeout_keeps_fleet_on_one_epoch;
          Alcotest.test_case "unwired signals rejected" `Quick
            plane_requires_wired_signals;
          Alcotest.test_case "retune and escalate callbacks" `Quick
            plane_retune_and_escalate;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "empty policy golden parity" `Quick
            empty_policy_golden_parity;
          Alcotest.test_case "audio: adaptive beats static" `Slow
            audio_adaptive_beats_static;
          Alcotest.test_case "mpeg: B-shedding protects I+P" `Slow
            mpeg_adaptive_protects_ip_frames;
          Alcotest.test_case "http: failover swap under crash" `Slow
            http_adaptive_routes_around_crash;
          Alcotest.test_case "retune reaches thresholds" `Quick retune_applies;
        ] );
    ]
