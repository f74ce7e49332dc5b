(* planpc — the PLAN-P program checker and compiler driver.

   Subcommands:
     check  FILE     parse + type check
     verify FILE     run the safety analyses (paper 2.1)
     ast    FILE     dump the parsed program (pretty-printed PLAN-P)
     bytecode FILE   dump the compiled bytecode
     time   FILE     measure code-generation time per backend (Fig. 3)
     run    FILE     run on a traced topology, export metrics/timeline
     stats  FILE     run and print the metrics registry
     deploy FILE     ship the program in-band to simulated deploy daemons
     undeploy FILE   deploy, then retire the program from every daemon
     adapt  FILE     run under a closed-loop adaptation policy
     prims           list registered primitives *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  content

let write_file path contents =
  match open_out_bin path with
  | oc ->
      output_string oc contents;
      close_out oc
  | exception Sys_error message ->
      prerr_endline ("planpc: " ^ message);
      exit 1

let or_die = function
  | Ok value -> value
  | Error message ->
      prerr_endline ("planpc: " ^ message);
      exit 1

let checked_of_file path =
  Planp_runtime.Prims.install ();
  or_die (Extnet.check_source (read_file path))

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"PLAN-P source file")

let check_cmd =
  let run path =
    let checked = checked_of_file path in
    let chans = Planp.Ast.channels checked.Planp.Typecheck.program in
    Printf.printf "%s: OK (%d lines, %d channel(s), protocol state %s)\n" path
      (Planp.Ast.line_count (read_file path))
      (List.length chans)
      (Planp.Ptype.to_string checked.Planp.Typecheck.proto_type)
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and type check a PLAN-P program")
    Term.(const run $ file_arg)

let verify_cmd =
  let run path =
    let checked = checked_of_file path in
    let report =
      Planp_analysis.Verifier.verify checked.Planp.Typecheck.program
    in
    Format.printf "%a@." Planp_analysis.Verifier.pp report;
    if not (Planp_analysis.Verifier.passes report) then exit 2
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the safety analyses: termination, delivery, duplication")
    Term.(const run $ file_arg)

let ast_cmd =
  let run path =
    let checked = checked_of_file path in
    print_string (Planp.Pretty.program_to_string checked.Planp.Typecheck.program)
  in
  Cmd.v (Cmd.info "ast" ~doc:"Pretty-print the parsed program")
    Term.(const run $ file_arg)

let bytecode_cmd =
  let run path =
    let checked = checked_of_file path in
    let compiled = Planp_jit.Bytecomp.compile_program checked ~globals:[] in
    Array.iter
      (fun func -> print_endline (Planp_jit.Bytecode.disassemble func))
      compiled.Planp_jit.Bytecomp.unit_.Planp_jit.Bytecode.funcs
  in
  Cmd.v (Cmd.info "bytecode" ~doc:"Dump compiled bytecode")
    Term.(const run $ file_arg)

let time_cmd =
  let run path =
    let source = read_file path in
    let checked = checked_of_file path in
    Printf.printf "%-42s %d lines\n" path (Planp.Ast.line_count source);
    List.iter
      (fun backend ->
        let ms =
          Planp_jit.Backends.codegen_time_ms backend checked ~globals:[]
            ~repeats:50
        in
        Printf.printf "  %-10s %8.3f ms\n"
          backend.Planp_runtime.Backend.backend_name ms)
      (Planp_jit.Backends.all ())
  in
  Cmd.v (Cmd.info "time" ~doc:"Measure code generation time (paper Fig. 3)")
    Term.(const run $ file_arg)

(* [packets] TCP segments and [packets] UDP datagrams from [src] to [dst],
   spread over a few ports so port-matching channels see both kinds. *)
let send_traffic ~src ~dst ~packets =
  for i = 1 to packets do
    Extnet.Node.send_tcp src ~dst:(Extnet.Node.addr dst) ~src_port:(3000 + i)
      ~dst_port:(if i mod 4 = 0 then 8080 else 80)
      (Extnet.Payload.of_string "payload");
    Extnet.Node.send_udp src ~dst:(Extnet.Node.addr dst) ~src_port:(4000 + i)
      ~dst_port:(if i mod 3 = 0 then 7 else 53)
      (Extnet.Payload.of_string "payload")
  done

let simulate_cmd =
  let run path packets backend_name =
    let source = read_file path in
    let backend =
      match Planp_jit.Backends.by_name backend_name with
      | Some backend -> backend
      | None ->
          prerr_endline ("planpc: unknown backend " ^ backend_name);
          exit 1
    in
    (* A three-node line; the program runs on the router. *)
    let topo = Extnet.Topology.create () in
    let a = Extnet.Topology.add_host topo "alice" "10.0.0.1" in
    let router = Extnet.Topology.add_host topo "router" "10.0.0.254" in
    let b = Extnet.Topology.add_host topo "bob" "10.0.0.2" in
    ignore (Extnet.Topology.connect topo a router);
    ignore (Extnet.Topology.connect topo router b);
    Extnet.Topology.compute_routes topo;
    (match Extnet.verify_source source with
    | Ok report ->
        Format.printf "--- verification ---@.%a@.@." Extnet.Verifier.pp report
    | Error message -> or_die (Error message));
    (* Authenticated so that rejected-but-interesting programs still run. *)
    let program =
      or_die
        (Extnet.load ~backend ~admission:Extnet.Authenticated router ~source ())
    in
    let tcp_seen = ref 0 and udp_seen = ref 0 in
    Extnet.Node.on_tcp_default b (fun _ _ -> incr tcp_seen);
    Extnet.Node.on_udp_default b (fun _ _ -> incr udp_seen);
    send_traffic ~src:a ~dst:b ~packets;
    Extnet.Topology.run topo;
    (match Extnet.runtime_of router with
    | Some rt ->
        let stats = Extnet.Runtime.stats rt in
        Printf.printf "--- router runtime (%s backend) ---\n" backend_name;
        Printf.printf "packets treated by the program: %d\n"
          stats.Extnet.Runtime.handled;
        Printf.printf "fell through to standard IP:    %d\n"
          stats.Extnet.Runtime.fallthrough;
        Printf.printf "program errors:                 %d\n"
          stats.Extnet.Runtime.errors;
        List.iter
          (fun (name, pkt_type, hits) ->
            Printf.printf "  channel %s (%s): %d packet(s)\n" name pkt_type hits)
          (Extnet.Runtime.channel_hits program);
        let output = Extnet.Runtime.output rt in
        if String.length output > 0 then
          Printf.printf "--- program output ---\n%s\n" output
    | None -> ());
    Printf.printf "--- receiver (bob) ---\ntcp: %d   udp: %d (of %d each sent)\n"
      !tcp_seen !udp_seen packets
  in
  let packets_arg =
    Arg.(value & opt int 20 & info [ "packets"; "n" ] ~doc:"Packets of each kind to inject")
  in
  let backend_arg =
    Arg.(value & opt string "jit" & info [ "backend" ] ~doc:"interp | jit | bytecode")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the program on a simulated router and inject test traffic")
    Term.(const run $ file_arg $ packets_arg $ backend_arg)

let at_least_one flag n =
  if n < 1 then begin
    prerr_endline (Printf.sprintf "planpc: %s must be >= 1" flag);
    exit 1
  end

(* The scenario [run], [stats] and [adapt] share: alice --uplink-- router
   --lan segment-- bob, where [targets > 1] chains routers [router0] ..
   [routerN-1] by [relay] links (one router keeps the name [router]). A
   tracer captures the segment, so every delivered frame also lands in
   the timeline, and bob counts what it receives. The topology is
   sharded over [domains] before faults are armed or any event lands:
   fault targets are pinned into one partition and the scenario is armed
   on its engine, so its RNG draws stay deterministic. Every run goes
   through [par]. Fault target names: link "uplink", segment "lan",
   nodes "alice", "router", "bob". *)
type scenario = {
  alice : Extnet.Node.t;
  routers : Extnet.Node.t list;
  bob : Extnet.Node.t;
  par : Extnet.Par.t;
  tracer : Extnet.Tracer.t;
  tcp_seen : int ref;
  udp_seen : int ref;
}

let build_scenario ?faults_path ~domains ~targets () =
  let topo = Extnet.Topology.create () in
  let alice = Extnet.Topology.add_host topo "alice" "10.0.0.1" in
  let routers =
    if targets = 1 then [ Extnet.Topology.add_host topo "router" "10.0.0.254" ]
    else
      List.init targets (fun i ->
          Extnet.Topology.add_host topo
            (Printf.sprintf "router%d" i)
            (Printf.sprintf "10.0.%d.254" i))
  in
  let bob = Extnet.Topology.add_host topo "bob" "10.0.0.2" in
  ignore (Extnet.Topology.connect ~name:"uplink" topo alice (List.hd routers));
  List.iteri
    (fun i r ->
      if i > 0 then
        ignore
          (Extnet.Topology.connect
             ~name:(Printf.sprintf "relay%d" (i - 1))
             topo
             (List.nth routers (i - 1))
             r))
    routers;
  let segment = Extnet.Topology.segment ~name:"lan" topo () in
  ignore (Extnet.Topology.attach topo segment (List.nth routers (targets - 1)));
  ignore (Extnet.Topology.attach topo segment bob);
  Extnet.Topology.compute_routes topo;
  let scenario =
    Option.map
      (fun path -> or_die (Extnet.Faults.parse_scenario (read_file path)))
      faults_path
  in
  let pin =
    match scenario with
    | Some sc when domains > 1 ->
        or_die
          (Result.map_error
             (fun msg -> "--domains with --faults: " ^ msg)
             (Extnet.Faults.pin_targets topo sc))
    | _ -> []
  in
  let par = or_die (Extnet.Par.of_topology ~pin topo ~domains) in
  if domains > 1 then
    Printf.printf "domains: %d (lookahead %gs)\n" domains
      (Extnet.Par.lookahead par);
  Option.iter
    (fun sc ->
      let engine =
        Option.map (Extnet.Par.engine_of par) (List.nth_opt pin 0)
      in
      ignore (Extnet.Faults.arm ?engine topo sc))
    scenario;
  let tracer = Extnet.Tracer.on_segment segment () in
  let tcp_seen = ref 0 and udp_seen = ref 0 in
  Extnet.Node.on_tcp_default bob (fun _ _ -> incr tcp_seen);
  Extnet.Node.on_udp_default bob (fun _ _ -> incr udp_seen);
  { alice; routers; bob; par; tracer; tcp_seen; udp_seen }

(* [run] and [stats]: the program on the router, [packets] of each kind
   injected at once, run to quiescence. Deterministic: same source and
   packet count always produce the same registry contents. [policy],
   when given, must be empty — the armed plane schedules nothing
   ({!Adapt.Policy.is_empty}), which is exactly what the golden-parity
   tests pin down. *)
let run_scenario ?faults_path ?policy ?(domains = 1) ~source ~backend ~packets
    () =
  let sc = build_scenario ?faults_path ~domains ~targets:1 () in
  ignore
    (or_die
       (Extnet.load ~backend ~admission:Extnet.Authenticated
          (List.hd sc.routers) ~source ()));
  let plane =
    Option.map
      (fun policy ->
        Extnet.Adapt.Plane.arm ~par:sc.par ~until:0.0 ~signals:[] policy)
      policy
  in
  let start_snapshot = Obs.Registry.snapshot Obs.Registry.default in
  send_traffic ~src:sc.alice ~dst:sc.bob ~packets;
  Extnet.Par.run sc.par;
  (sc, start_snapshot, plane)

let backend_of_name backend_name =
  match Planp_jit.Backends.by_name backend_name with
  | Some backend -> backend
  | None ->
      prerr_endline ("planpc: unknown backend " ^ backend_name);
      exit 1

let packets_flag =
  Arg.(
    value & opt int 20
    & info [ "packets"; "n" ] ~doc:"Packets of each kind to inject")

let backend_flag =
  Arg.(value & opt string "jit" & info [ "backend" ] ~doc:"interp | jit | bytecode")

let out_flag names doc =
  Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

let faults_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"FILE"
        ~doc:
          "Arm a fault-injection scenario (link flaps, loss, corruption, \
           congestion, node crashes; see doc/FAULTS.md) on the topology \
           before the run. Targets: link $(b,uplink), segment $(b,lan), \
           nodes $(b,alice), $(b,router), $(b,bob).")

let metrics_out_flag =
  out_flag [ "metrics-out" ] "Write the metrics registry as JSON to $(docv)"

let metrics_csv_flag =
  out_flag [ "metrics-csv" ] "Write the metrics registry as CSV to $(docv)"

let timeline_out_flag =
  out_flag [ "timeline-out" ]
    "Write the merged trace + metrics timeline as JSON to $(docv)"

let export_observability sc ~start_snapshot ~metrics_out ~metrics_csv
    ~timeline_out =
  let registry = Obs.Registry.default in
  Option.iter
    (fun file ->
      write_file file (Obs.Registry.to_json_string registry);
      Printf.printf "wrote metrics JSON to %s\n" file)
    metrics_out;
  Option.iter
    (fun file ->
      write_file file (Obs.Registry.to_csv_string registry);
      Printf.printf "wrote metrics CSV to %s\n" file)
    metrics_csv;
  Option.iter
    (fun file ->
      (* A partitioned run keeps one clock per domain; [Par.now] is their
         maximum, which equals the sequential engine's final clock. *)
      let now = Extnet.Par.now sc.par in
      let events =
        Obs.Timeline.merge
          [
            [ Obs.Timeline.of_snapshot ~at:0.0 start_snapshot ];
            Extnet.Tracer.to_events sc.tracer;
            [ Obs.Timeline.of_snapshot ~at:now (Obs.Registry.snapshot registry) ];
          ]
      in
      write_file file (Obs.Timeline.to_json_string events);
      Printf.printf "wrote timeline (%d event(s)) to %s\n" (List.length events)
        file)
    timeline_out

(* The body of [run]; [adapt] with an empty policy takes this exact code
   path (plus the inert armed plane), so its exports are byte-identical. *)
let run_plain ?policy ?domains path packets backend_name metrics_out
    metrics_csv timeline_out faults_path =
  let backend = backend_of_name backend_name in
  let sc, start_snapshot, plane =
    run_scenario ?faults_path ?policy ?domains ~source:(read_file path)
      ~backend ~packets ()
  in
  Printf.printf "--- run (%s backend) ---\n" backend_name;
  Printf.printf "receiver (bob): tcp %d   udp %d (of %d each sent)\n"
    !(sc.tcp_seen) !(sc.udp_seen) packets;
  Printf.printf "tracer: %d frame(s) captured, %d evicted\n"
    (Extnet.Tracer.count sc.tracer)
    (Extnet.Tracer.dropped sc.tracer);
  Option.iter
    (fun plane ->
      let stats = Extnet.Adapt.Plane.stats plane in
      Printf.printf
        "adaptation: empty policy armed, %d tick(s), %d firing(s) (inert)\n"
        stats.Extnet.Adapt.Plane.st_ticks stats.Extnet.Adapt.Plane.st_fired)
    plane;
  export_observability sc ~start_snapshot ~metrics_out ~metrics_csv
    ~timeline_out

let domains_flag =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Shard the topology across $(docv) OCaml domains (deterministic \
           conservative parallel simulation). $(docv)=1 (the default) is \
           the plain sequential engine; results are identical either way.")

let run_cmd =
  let run path packets backend_name domains metrics_out metrics_csv
      timeline_out faults_path =
    at_least_one "--domains" domains;
    run_plain ~domains path packets backend_name metrics_out metrics_csv
      timeline_out faults_path
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the program on a traced topology and export observability data")
    Term.(
      const run $ file_arg $ packets_flag $ backend_flag $ domains_flag
      $ metrics_out_flag $ metrics_csv_flag $ timeline_out_flag $ faults_flag)

let stats_cmd =
  let run path packets backend_name =
    let backend = backend_of_name backend_name in
    ignore (run_scenario ~source:(read_file path) ~backend ~packets ());
    Obs.Registry.pp Format.std_formatter Obs.Registry.default;
    Format.pp_print_flush Format.std_formatter ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run the program on a traced topology and print every metric")
    Term.(const run $ file_arg $ packets_flag $ backend_flag)

(* --- the deployment plane demo: ctrl —uplink— router —segment— targets.
   Each invocation simulates its own network; [deploy] ships the program
   in-band to every target's deploy daemon, [undeploy] retires it again
   afterwards. --flap cuts the uplink mid-transfer to show the transfer
   surviving on retransmissions. *)

let deploy_topology ~targets =
  let topo = Extnet.Topology.create () in
  let ctrl = Extnet.Topology.add_host topo "ctrl" "10.9.0.1" in
  let router = Extnet.Topology.add_host topo "router" "10.9.0.254" in
  let uplink = Extnet.Topology.connect ~name:"uplink" topo ctrl router in
  let segment = Extnet.Topology.segment ~name:"lan" topo () in
  ignore (Extnet.Topology.attach topo segment router);
  let nodes =
    List.init targets (fun i ->
        let node =
          Extnet.Topology.add_host topo
            (Printf.sprintf "target%d" i)
            (Printf.sprintf "10.9.1.%d" (i + 1))
        in
        ignore (Extnet.Topology.attach topo segment node);
        node)
  in
  Extnet.Topology.compute_routes topo;
  (topo, ctrl, uplink, nodes)

let print_deploy_metrics () =
  print_endline "--- deployment metrics ---";
  List.iter
    (fun entry ->
      let name = entry.Obs.Registry.e_name in
      if String.length name >= 7 && String.sub name 0 7 = "deploy." then
        let label =
          Printf.sprintf "%s{%s}" name
            (Obs.Registry.labels_to_string entry.Obs.Registry.e_labels)
        in
        match entry.Obs.Registry.e_sample with
        | Obs.Registry.Scounter n -> Printf.printf "  %-64s %d\n" label n
        | Obs.Registry.Sgauge v -> Printf.printf "  %-64s %g\n" label v
        | Obs.Registry.Shistogram { hs_count; hs_sum; _ } ->
            Printf.printf "  %-64s count=%d sum=%g\n" label hs_count hs_sum)
    (Obs.Registry.snapshot Obs.Registry.default)

let name_of_target nodes addr =
  match
    List.find_opt (fun node -> Extnet.Node.addr node = addr) nodes
  with
  | Some node -> Extnet.Node.name node
  | None -> Extnet.Addr.to_string addr

let print_outcomes nodes outcomes =
  List.iter
    (fun (addr, outcome) ->
      Printf.printf "  %-10s %s\n" (name_of_target nodes addr)
        (Extnet.Deploy.Controller.outcome_to_string outcome))
    outcomes

let all_acked outcomes =
  List.for_all
    (fun (_, outcome) ->
      match outcome with Extnet.Deploy.Controller.Acked _ -> true | _ -> false)
    outcomes

(* Every non-ACK outcome, with its reason, on stderr — so scripted
   callers see why the nonzero exit happened (NAK reason, timeout,
   exhausted retry budget). *)
let print_failures nodes outcomes =
  List.iter
    (fun (addr, outcome) ->
      match outcome with
      | Extnet.Deploy.Controller.Acked _ -> ()
      | outcome ->
          Printf.eprintf "planpc: deploy failed on %s: %s\n"
            (name_of_target nodes addr)
            (Extnet.Deploy.Controller.outcome_to_string outcome))
    outcomes

let targets_flag =
  Arg.(value & opt int 3 & info [ "targets" ] ~doc:"Number of target nodes")

let flap_flag =
  Arg.(
    value & flag
    & info [ "flap" ]
        ~doc:"Cut the controller's uplink mid-transfer and heal it at t=1s")

let name_flag =
  Arg.(
    value & opt string "asp"
    & info [ "name" ] ~doc:"Program (slot) name on the daemons")

let chunk_flag =
  Arg.(value & opt int 512 & info [ "chunk-size" ] ~doc:"Capsule payload bytes")

let concurrency_flag =
  Arg.(
    value & opt int 2
    & info [ "concurrency" ] ~doc:"Concurrent transfers during the rollout")

let abort_flag =
  Arg.(
    value & flag
    & info [ "abort-on-nak" ]
        ~doc:
          "Stop the rollout at the first target that fails: a NAK, a \
           timeout or an aborted transfer (untried targets are skipped, \
           acked ones restored)")

let authenticated_flag =
  Arg.(
    value & flag
    & info [ "authenticated" ]
        ~doc:"Privileged path: daemons install without verification")

let retry_budget_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "retry-budget" ] ~docv:"N"
        ~doc:
          "Consecutive barren retransmission timeouts tolerated per \
           capsule stream before the target is declared unreachable and \
           pending operations settle $(b,aborted) (default: retry \
           forever)")

let run_deployment ~source ~backend_name ~name ~targets ~flap ~chunk_size
    ~concurrency ~abort ~authenticated ~retry_budget =
  ignore (backend_of_name backend_name);
  let topo, ctrl, uplink, nodes = deploy_topology ~targets in
  let daemons =
    List.map (fun node -> Extnet.Deploy.Daemon.start node ()) nodes
  in
  let controller =
    Extnet.Deploy.Controller.create ?retry_budget ~chunk_size ctrl ()
  in
  let engine = Extnet.Topology.engine topo in
  if flap then begin
    Extnet.Engine.schedule engine ~at:0.0015 (fun () ->
        Netsim.Link.set_up uplink false);
    Extnet.Engine.schedule engine ~at:1.0 (fun () ->
        Netsim.Link.set_up uplink true)
  end;
  let outcomes = ref None in
  Extnet.Deploy.Controller.rollout controller ~backend:backend_name
    ~authenticated ~concurrency
    ~on_nak:
      (if abort then Extnet.Deploy.Controller.Abort
       else Extnet.Deploy.Controller.Continue)
    ~targets:(List.map Extnet.Node.addr nodes)
    ~name ~source
    ~on_done:(fun results -> outcomes := Some results)
    ();
  Extnet.Topology.run_until topo ~stop:120.0;
  let outcomes =
    match !outcomes with
    | Some outcomes -> outcomes
    | None ->
        prerr_endline "planpc: rollout never completed";
        exit 1
  in
  (topo, controller, nodes, daemons, outcomes)

let deploy_cmd =
  let run path backend_name name targets flap chunk_size concurrency abort
      authenticated retry_budget =
    let _topo, _controller, nodes, daemons, outcomes =
      run_deployment ~source:(read_file path) ~backend_name ~name ~targets
        ~flap ~chunk_size ~concurrency ~abort ~authenticated ~retry_budget
    in
    Printf.printf "--- rollout of %s as %S to %d node(s) ---\n" path name
      targets;
    print_outcomes nodes outcomes;
    print_endline "--- daemon slots ---";
    List.iter
      (fun daemon ->
        Printf.printf "  %-10s %s\n"
          (Extnet.Node.name (Extnet.Deploy.Daemon.node daemon))
          (match Extnet.Deploy.Daemon.slots daemon with
          | [] -> "(empty)"
          | slots ->
              String.concat ", "
                (List.map
                   (fun (slot, epoch) -> Printf.sprintf "%s@%d" slot epoch)
                   slots)))
      daemons;
    print_deploy_metrics ();
    if not (all_acked outcomes) then begin
      print_failures nodes outcomes;
      exit 2
    end
  in
  Cmd.v
    (Cmd.info "deploy"
       ~doc:
         "Ship the program in-band to deploy daemons over a simulated \
          topology (staged rollout; daemons verify before activating)")
    Term.(
      const run $ file_arg $ backend_flag $ name_flag $ targets_flag
      $ flap_flag $ chunk_flag $ concurrency_flag $ abort_flag
      $ authenticated_flag $ retry_budget_flag)

let undeploy_cmd =
  let run path backend_name name targets flap chunk_size concurrency abort
      authenticated retry_budget =
    let topo, controller, nodes, daemons, outcomes =
      run_deployment ~source:(read_file path) ~backend_name ~name ~targets
        ~flap ~chunk_size ~concurrency ~abort ~authenticated ~retry_budget
    in
    Printf.printf "--- deploy phase (%S to %d node(s)) ---\n" name targets;
    print_outcomes nodes outcomes;
    let retired = ref [] in
    List.iter
      (fun node ->
        Extnet.Deploy.Controller.undeploy controller
          ~target:(Extnet.Node.addr node) ~name
          ~on_done:(fun outcome ->
            retired := (Extnet.Node.addr node, outcome) :: !retired)
          ())
      nodes;
    Extnet.Topology.run_until topo ~stop:240.0;
    print_endline "--- undeploy phase ---";
    print_outcomes nodes (List.rev !retired);
    List.iter
      (fun daemon ->
        Printf.printf "  %-10s slot %S %s\n"
          (Extnet.Node.name (Extnet.Deploy.Daemon.node daemon))
          name
          (match
             ( Extnet.Deploy.Daemon.active_epoch daemon ~name,
               Extnet.Deploy.Daemon.previous_epoch daemon ~name )
           with
          | None, Some epoch ->
              Printf.sprintf "retired (epoch %d kept for rollback)" epoch
          | None, None -> "empty"
          | Some epoch, _ -> Printf.sprintf "STILL ACTIVE at epoch %d" epoch))
      daemons;
    print_deploy_metrics ();
    if not (all_acked outcomes && all_acked !retired) then begin
      print_failures nodes outcomes;
      print_failures nodes (List.rev !retired);
      exit 2
    end
  in
  Cmd.v
    (Cmd.info "undeploy"
       ~doc:
         "Deploy the program in-band, then retire it from every daemon \
          (the previous epoch stays available for rollback)")
    Term.(
      const run $ file_arg $ backend_flag $ name_flag $ targets_flag
      $ flap_flag $ chunk_flag $ concurrency_flag $ abort_flag
      $ authenticated_flag $ retry_budget_flag)

(* --- the closed-loop adaptation demo: the [run] topology, but the
   program is shipped in-band (daemon on the router, controller on
   alice), traffic is paced over [--duration] so the monitors see rates,
   and an [Adapt.Plane] armed from [--policy] can hot-swap the router's
   program to any [--variant NAME=FILE] source as a fresh epoch. Wired
   signals: [drop_rate] (lan-segment drops/s) and [goodput] (packets/s
   delivered at bob). An empty policy file falls back to the exact [run]
   code path, so its exports are byte-identical to [planpc run]. *)

let policy_flag =
  Arg.(
    required
    & opt (some file) None
    & info [ "policy" ] ~docv:"FILE"
        ~doc:
          "Adaptation policy (format: doc/ADAPTATION.md). Rules may test \
           the wired signals $(b,drop_rate) and $(b,goodput); swap and \
           undeploy actions target the router's program slot (see \
           $(b,--name)) with the variants named by $(b,--variant), plus \
           $(b,default) for FILE itself.")

let variant_flag =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string file) []
    & info [ "variant" ] ~docv:"NAME=FILE"
        ~doc:
          "A PLAN-P source the policy's swap actions may deploy \
           (repeatable). The initially-deployed FILE is variant \
           $(b,default).")

let duration_flag =
  Arg.(
    value & opt float 20.0
    & info [ "duration" ] ~docv:"SECONDS"
        ~doc:
          "Simulated run length; $(b,--packets) of each kind are \
           injected every second until then")

let targets_flag =
  Arg.(
    value & opt int 1
    & info [ "targets" ] ~docv:"N"
        ~doc:
          "Chain $(docv) routers between alice and the lan segment \
           ($(b,router0) .. $(b,routerN-1), joined by $(b,relay) links), \
           all running the program; swap and undeploy actions reach the \
           whole fleet through one staged rollout. $(docv)=1 (the \
           default) is the classic single $(b,router).")

let adapt_cmd =
  let run path policy_path packets backend_name name chunk_size authenticated
      duration variants domains targets metrics_out metrics_csv timeline_out
      faults_path =
    ignore (backend_of_name backend_name);
    at_least_one "--domains" domains;
    at_least_one "--targets" targets;
    let policy =
      match Extnet.Adapt.Policy.parse (read_file policy_path) with
      | Ok policy -> policy
      | Error message ->
          prerr_endline
            (Printf.sprintf "planpc: %s: %s" policy_path message);
          exit 1
    in
    if Extnet.Adapt.Policy.is_empty policy then begin
      Printf.printf "policy %s is empty: plain traced run\n" policy_path;
      run_plain ~policy ~domains path packets backend_name metrics_out
        metrics_csv timeline_out faults_path
    end
    else begin
      let source = read_file path in
      let variant_sources =
        List.map (fun (vname, vpath) -> (vname, read_file vpath)) variants
      in
      let sc = build_scenario ?faults_path ~domains ~targets () in
      let daemons =
        List.map (fun r -> (r, Extnet.Deploy.Daemon.start r ())) sc.routers
      in
      let controller =
        Extnet.Deploy.Controller.create ~chunk_size sc.alice ()
      in
      let start_snapshot = Obs.Registry.snapshot Obs.Registry.default in
      let router_addrs = List.map Extnet.Node.addr sc.routers in
      let initial = ref None in
      Extnet.Deploy.Controller.rollout controller ~backend:backend_name
        ~authenticated ~concurrency:2 ~on_nak:Extnet.Deploy.Controller.Abort
        ~targets:router_addrs ~name ~source
        ~on_done:(fun outcomes ->
          (* Worst outcome stands for the fleet: the run only proceeds
             usefully when every hop acked. *)
          let worst =
            List.find_opt
              (fun (_, o) ->
                match o with
                | Extnet.Deploy.Controller.Acked _ -> false
                | _ -> true)
              outcomes
          in
          initial :=
            Some
              (match (worst, outcomes) with
              | Some (_, o), _ -> o
              | None, (_, o) :: _ -> o
              | None, [] -> Extnet.Deploy.Controller.Timed_out))
        ();
      let inj_engine = Extnet.Par.engine_of sc.par sc.alice in
      for second = 0 to int_of_float (Float.round duration) - 1 do
        Extnet.Engine.schedule inj_engine ~at:(float_of_int second) (fun () ->
            send_traffic ~src:sc.alice ~dst:sc.bob ~packets)
      done;
      let env =
        {
          Extnet.Adapt.Plane.de_controller = controller;
          de_backend = backend_name;
          de_targets_of =
            (fun program -> if program = name then router_addrs else []);
          de_variant_of =
            (fun ~program ~variant ->
              if program <> name then None
              else if variant = "default" then
                Some
                  {
                    Extnet.Adapt.Plane.v_source = source;
                    v_authenticated = authenticated;
                  }
              else
                Option.map
                  (fun v_source ->
                    {
                      Extnet.Adapt.Plane.v_source;
                      v_authenticated = authenticated;
                    })
                  (List.assoc_opt variant variant_sources));
          de_concurrency = 2;
        }
      in
      let plane =
        try
          Extnet.Adapt.Plane.arm ~env ~par:sc.par
            ~active:[ (name, "default") ]
            ~until:duration
            ~signals:
              [
                ( "drop_rate",
                  Extnet.Adapt.Monitor.Counter_rate
                    (Obs.Registry.counter
                       ~labels:[ ("segment", "lan") ]
                       ~help:"frames dropped (full queue)"
                       "netsim.segment.drops") );
                ( "goodput",
                  Extnet.Adapt.Monitor.Rate_of
                    (fun () -> float_of_int (!(sc.tcp_seen) + !(sc.udp_seen)))
                );
              ]
            policy
        with Invalid_argument message ->
          prerr_endline ("planpc: " ^ message);
          exit 1
      in
      Extnet.Par.run_until sc.par ~stop:duration;
      Printf.printf "--- adapt (%s backend, policy %s) ---\n" backend_name
        policy_path;
      let initial = !initial in
      Printf.printf "initial in-band deploy of %S to %s: %s\n" name
        (if targets = 1 then "router"
         else Printf.sprintf "%d routers" targets)
        (match initial with
        | Some outcome -> Extnet.Deploy.Controller.outcome_to_string outcome
        | None -> "still in flight");
      Printf.printf "receiver (bob): tcp %d   udp %d (of %d/s each for %gs)\n"
        !(sc.tcp_seen) !(sc.udp_seen) packets duration;
      Printf.printf "tracer: %d frame(s) captured, %d evicted\n"
        (Extnet.Tracer.count sc.tracer)
        (Extnet.Tracer.dropped sc.tracer);
      let stats = Extnet.Adapt.Plane.stats plane in
      Printf.printf
        "plane: %d tick(s), %d firing(s), %d swap(s) (%d failed), %d \
         undeploy(s), %d guard check(s), %d rollback(s)\n"
        stats.Extnet.Adapt.Plane.st_ticks stats.Extnet.Adapt.Plane.st_fired
        stats.Extnet.Adapt.Plane.st_swaps
        stats.Extnet.Adapt.Plane.st_failed_swaps
        stats.Extnet.Adapt.Plane.st_undeploys
        stats.Extnet.Adapt.Plane.st_guard_checks
        stats.Extnet.Adapt.Plane.st_rollbacks;
      List.iter
        (fun event ->
          Printf.printf "  [%8.3fs] %-12s %-28s %s\n"
            event.Extnet.Adapt.Plane.ev_at event.Extnet.Adapt.Plane.ev_rule
            event.Extnet.Adapt.Plane.ev_what event.Extnet.Adapt.Plane.ev_note)
        stats.Extnet.Adapt.Plane.st_events;
      Printf.printf "active variant of %S: %s\n" name
        (Option.value ~default:"(none)"
           (Extnet.Adapt.Plane.active_variant plane name));
      List.iter
        (fun (r, daemon) ->
          Printf.printf "%s slots: %s\n" (Extnet.Node.name r)
            (match Extnet.Deploy.Daemon.slots daemon with
            | [] -> "(empty)"
            | slots ->
                String.concat ", "
                  (List.map
                     (fun (slot, epoch) -> Printf.sprintf "%s@%d" slot epoch)
                     slots)))
        daemons;
      export_observability sc ~start_snapshot ~metrics_out ~metrics_csv
        ~timeline_out;
      match initial with
      | Some (Extnet.Deploy.Controller.Acked _) -> ()
      | Some outcome ->
          Printf.eprintf "planpc: initial deploy failed: %s\n"
            (Extnet.Deploy.Controller.outcome_to_string outcome);
          exit 2
      | None ->
          prerr_endline "planpc: initial deploy never completed";
          exit 2
    end
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Run the program under a closed-loop adaptation policy: in-band \
          deploy, condition monitors, guarded hot-swaps to $(b,--variant) \
          sources across the $(b,--targets) router fleet, optionally \
          sharded over $(b,--domains) OCaml domains")
    Term.(
      const run $ file_arg $ policy_flag $ packets_flag $ backend_flag
      $ name_flag $ chunk_flag $ authenticated_flag $ duration_flag
      $ variant_flag $ domains_flag $ targets_flag $ metrics_out_flag
      $ metrics_csv_flag $ timeline_out_flag $ faults_flag)

let prims_cmd =
  let run () =
    Planp_runtime.Prims.install ();
    List.iter print_endline (Planp_runtime.Prim.names ())
  in
  Cmd.v (Cmd.info "prims" ~doc:"List registered primitives")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "planpc" ~version:"1.0"
       ~doc:"PLAN-P checker, verifier and compiler driver")
    [ check_cmd; verify_cmd; ast_cmd; bytecode_cmd; time_cmd;
      simulate_cmd; run_cmd; stats_cmd; deploy_cmd; undeploy_cmd; adapt_cmd;
      prims_cmd ]

let () = exit (Cmd.eval main)
