(* End-to-end tests of the planpc command-line tool (the binary itself,
   run as a subprocess — dune declares the dependency). *)

let planpc = "../bin/planpc.exe"
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* Run planpc with [args]; returns (exit code, combined output). *)
let run args =
  let out_file = Filename.temp_file "planpc" ".out" in
  let command =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote planpc)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out_file)
  in
  let code = Sys.command command in
  let ic = open_in_bin out_file in
  let output = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out_file;
  (code, output)

let write_program source =
  let path = Filename.temp_file "prog" ".planp" in
  let oc = open_out path in
  output_string oc source;
  close_out oc;
  path

let forwarder =
  "channel network(ps : int, ss : int, p : ip*tcp*blob) is\n\
   (OnRemote(network, p); (ps, ss))"

let flood =
  "channel flood(ps : unit, ss : unit, p : ip*blob) is\n\
   (OnNeighbor(flood, p); (ps, ss))"

let cli_check_ok () =
  let path = write_program forwarder in
  let code, output = run [ "check"; path ] in
  Sys.remove path;
  check "exit 0" 0 code;
  checkb "reports OK" true (contains output "OK");
  checkb "reports channels" true (contains output "1 channel(s)")

let cli_check_bad () =
  let path = write_program "val x : int = true" in
  let code, output = run [ "check"; path ] in
  Sys.remove path;
  checkb "nonzero exit" true (code <> 0);
  checkb "mentions the type error" true (contains output "expected int")

let cli_verify_pass_and_fail () =
  let good = write_program forwarder in
  let code, output = run [ "verify"; good ] in
  Sys.remove good;
  check "good exits 0" 0 code;
  checkb "all proved" true (contains output "PROVED");
  let bad = write_program flood in
  let code, output = run [ "verify"; bad ] in
  Sys.remove bad;
  check "rejected exits 2" 2 code;
  checkb "names the flooding loop" true (contains output "flooding")

let cli_ast_reparses () =
  let path = write_program forwarder in
  let code, output = run [ "ast"; path ] in
  Sys.remove path;
  check "exit 0" 0 code;
  (* the dump must itself be a valid program *)
  let reparsed = Planp.Parser.parse output in
  check "one decl" 1 (List.length reparsed)

let cli_bytecode () =
  let path = write_program forwarder in
  let code, output = run [ "bytecode"; path ] in
  Sys.remove path;
  check "exit 0" 0 code;
  checkb "has emit" true (contains output "emit_remote network");
  checkb "has return" true (contains output "return")

let cli_time () =
  let path = write_program forwarder in
  let code, output = run [ "time"; path ] in
  Sys.remove path;
  check "exit 0" 0 code;
  checkb "mentions jit" true (contains output "jit");
  checkb "mentions ms" true (contains output "ms")

let cli_prims () =
  let code, output = run [ "prims" ] in
  check "exit 0" 0 code;
  List.iter
    (fun prim -> checkb prim true (contains output prim))
    [ "ipDestSet"; "audioDegrade"; "imgDistill"; "tblGet"; "linkLoad" ]

let cli_simulate () =
  let path = write_program forwarder in
  let code, output = run [ "simulate"; path; "--packets"; "5" ] in
  Sys.remove path;
  check "exit 0" 0 code;
  checkb "tcp treated" true (contains output "packets treated by the program: 5");
  checkb "receiver got everything" true (contains output "tcp: 5   udp: 5")

let cli_simulate_backend () =
  let path = write_program forwarder in
  let code, output = run [ "simulate"; path; "--backend"; "interp"; "-n"; "3" ] in
  Sys.remove path;
  check "exit 0" 0 code;
  checkb "interp backend named" true (contains output "interp backend")

let cli_missing_file () =
  let code, _ = run [ "check"; "/nonexistent.planp" ] in
  checkb "nonzero exit" true (code <> 0)

let read_and_remove path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  contents

let cli_stats () =
  let path = write_program forwarder in
  let code, output = run [ "stats"; path; "-n"; "5" ] in
  Sys.remove path;
  check "exit 0" 0 code;
  checkb "engine events metric" true (contains output "netsim.engine.events");
  checkb "link metric" true (contains output "netsim.link.tx_packets");
  checkb "node metric with label" true
    (contains output "netsim.node.delivered{node=bob}");
  checkb "runtime metric" true (contains output "planp.runtime.handled")

let cli_run_metrics_deterministic () =
  let path = write_program forwarder in
  let m1 = Filename.temp_file "metrics" ".json" in
  let m2 = Filename.temp_file "metrics" ".json" in
  let code1, output = run [ "run"; path; "--metrics-out"; m1 ] in
  let code2, _ = run [ "run"; path; "--metrics-out"; m2 ] in
  Sys.remove path;
  check "first exit 0" 0 code1;
  check "second exit 0" 0 code2;
  checkb "mentions receiver" true (contains output "receiver (bob)");
  let j1 = read_and_remove m1 and j2 = read_and_remove m2 in
  checkb "two identical runs export byte-identical JSON" true (j1 = j2);
  checkb "format header" true (contains j1 "planp-metrics/1");
  List.iter
    (fun family ->
      checkb (family ^ " present") true (contains j1 family))
    [ "netsim.engine."; "netsim.link."; "netsim.segment."; "netsim.node.";
      "planp.runtime."; "planp.exec.packets" ]

let cli_run_timeline () =
  let path = write_program forwarder in
  let out = Filename.temp_file "timeline" ".json" in
  let code, _ = run [ "run"; path; "-n"; "3"; "--timeline-out"; out ] in
  Sys.remove path;
  check "exit 0" 0 code;
  let json = read_and_remove out in
  checkb "format header" true (contains json "planp-timeline/1");
  checkb "tracer events present" true (contains json "\"source\": \"tracer\"");
  checkb "metric snapshots present" true (contains json "\"source\": \"metrics\"")

let cli_deploy () =
  let path = write_program forwarder in
  let code, output = run [ "deploy"; path; "--targets"; "3"; "--flap" ] in
  Sys.remove path;
  check "exit 0" 0 code;
  checkb "every target acked" true (contains output "target2    ACK epoch 1");
  checkb "slots listed" true (contains output "asp@1");
  checkb "capsule metric" true
    (contains output "deploy.controller.capsules_sent{controller=ctrl}");
  checkb "flap forced retransmissions" true
    (not (contains output "retransmissions{controller=ctrl}               0"))

let cli_deploy_rejected () =
  (* The daemons verify on the receiving node: an unprovable program is
     NAKed with the verifier's reason, and the exit code says so. *)
  let path = write_program flood in
  let code, output = run [ "deploy"; path; "--targets"; "1" ] in
  check "exit 2" 2 code;
  checkb "NAK with reason" true (contains output "NAK epoch 1: rejected");
  checkb "slot left empty" true (contains output "(empty)");
  (* the privileged path still installs it *)
  let code, output =
    run [ "deploy"; path; "--targets"; "1"; "--authenticated" ]
  in
  Sys.remove path;
  check "authenticated exit 0" 0 code;
  checkb "authenticated acked" true (contains output "ACK epoch 1")

let cli_undeploy () =
  let path = write_program forwarder in
  let code, output = run [ "undeploy"; path; "--targets"; "2" ] in
  Sys.remove path;
  check "exit 0" 0 code;
  checkb "deployed first" true (contains output "ACK epoch 1 (activated)");
  checkb "then retired" true (contains output "ACK epoch 1 (undeployed)");
  checkb "rollback target retained" true
    (contains output "retired (epoch 1 kept for rollback)")

let cli_deploy_retry_budget_aborts () =
  (* With a finite retry budget the --flap cut (healed only at t=1s)
     exhausts the capsule streams: the rollout settles Aborted, the exit
     code is nonzero and the reason reaches stderr. *)
  let path = write_program forwarder in
  let code, output =
    run [ "deploy"; path; "--targets"; "2"; "--flap"; "--retry-budget"; "2" ]
  in
  Sys.remove path;
  check "exit 2" 2 code;
  checkb "outcome aborted" true
    (contains output "aborted: retry budget exhausted");
  checkb "failure reason on stderr" true
    (contains output "planpc: deploy failed on target0")

let write_tmp suffix contents =
  let path = Filename.temp_file "adapt" suffix in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let cli_adapt_empty_policy_parity () =
  (* The golden-parity satellite at the CLI level: adapt with an empty
     policy arms an inert plane on the exact [run] code path, so metrics
     and timeline exports come out byte-identical to [planpc run]. *)
  let path = write_program forwarder in
  let policy = write_tmp ".pol" "# no rules\n\n" in
  let m1 = Filename.temp_file "metrics" ".json" in
  let t1 = Filename.temp_file "timeline" ".json" in
  let m2 = Filename.temp_file "metrics" ".json" in
  let t2 = Filename.temp_file "timeline" ".json" in
  let code1, output =
    run
      [ "adapt"; path; "--policy"; policy; "--metrics-out"; m1;
        "--timeline-out"; t1 ]
  in
  let code2, _ =
    run [ "run"; path; "--metrics-out"; m2; "--timeline-out"; t2 ]
  in
  Sys.remove path;
  Sys.remove policy;
  check "adapt exit 0" 0 code1;
  check "run exit 0" 0 code2;
  checkb "reports the inert plane" true (contains output "(inert)");
  checkb "metrics byte-identical" true (read_and_remove m1 = read_and_remove m2);
  checkb "timeline byte-identical" true
    (read_and_remove t1 = read_and_remove t2)

let cli_adapt_closed_loop () =
  (* End to end from the command line: congestion squeezes the lan
     segment, the drop_rate rule fires, the plane hot-swaps the router's
     program to the --variant source as a fresh epoch, and the goodput
     guard confirms the swap. *)
  let path = write_program forwarder in
  let variant = write_tmp ".planp" forwarder in
  let policy =
    write_tmp ".pol"
      "period 0.5\n\
       alpha 0.4\n\
       rule shed: when drop_rate > 5 for 1 cooldown 8 do swap asp lite\n\
       guard goodput window 3 min-ratio 0.2\n"
  in
  let faults =
    write_tmp ".faults"
      "at 4.0 until 14.0 congest lan bandwidth 0.001 queue 0.002\n"
  in
  let code, output =
    run
      [ "adapt"; path; "--policy"; policy; "--variant"; "lite=" ^ variant;
        "--faults"; faults; "--duration"; "20"; "--packets"; "40" ]
  in
  Sys.remove path;
  Sys.remove variant;
  Sys.remove policy;
  Sys.remove faults;
  check "exit 0" 0 code;
  checkb "initial deploy acked" true (contains output "ACK epoch 1 (activated)");
  checkb "rule fired a swap" true (contains output "swap asp lite");
  checkb "swap acked as a fresh epoch" true (contains output "acked epoch 2");
  checkb "guard passed" true (contains output "pass: goodput");
  checkb "variant live" true
    (contains output "active variant of \"asp\": lite");
  checkb "router on the new epoch" true (contains output "asp@2")

(* Domain-count parity at the CLI level: a full closed loop — faults, a
   firing policy, a coordinated swap staged over a 3-router fleet — must
   export byte-identical metrics and timelines and narrate the same
   decisions, at the same simulated times, for any --domains count and
   on a repeated run. *)
let cli_adapt_domains_parity () =
  let path = write_program forwarder in
  let variant = write_tmp ".planp" forwarder in
  let policy =
    write_tmp ".pol"
      "period 0.5\n\
       alpha 0.4\n\
       rule shed: when drop_rate > 5 for 1 cooldown 8 do swap asp lite\n\
       guard goodput window 3 min-ratio 0.2\n"
  in
  let faults =
    write_tmp ".faults"
      "at 4.0 until 14.0 congest lan bandwidth 0.001 queue 0.002\n"
  in
  let leg domains =
    let m = Filename.temp_file "metrics" ".json" in
    let t = Filename.temp_file "timeline" ".json" in
    let code, output =
      run
        [ "adapt"; path; "--policy"; policy; "--variant"; "lite=" ^ variant;
          "--faults"; faults; "--duration"; "20"; "--packets"; "40";
          "--targets"; "3"; "--domains"; string_of_int domains;
          "--metrics-out"; m; "--timeline-out"; t ]
    in
    check (Printf.sprintf "domains %d exit 0" domains) 0 code;
    (output, read_and_remove m, read_and_remove t)
  in
  (* The plane's narrated decisions: "  [   5.502s] rule  what  note". *)
  let decisions output =
    String.split_on_char '\n' output
    |> List.filter (fun line ->
           String.length line > 3 && String.sub line 0 3 = "  [")
  in
  let out1, m1, t1 = leg 1 in
  checkb "fleet-wide initial deploy" true (contains out1 "to 3 routers");
  checkb "rule fired a swap" true (contains out1 "swap asp lite");
  checkb "stage ACKs and the guard narrated" true
    (List.length (decisions out1) >= 5);
  checkb "timeline has packet events" true (contains t1 "\"uid\"");
  List.iter
    (fun domains ->
      let out, m, t = leg domains in
      checkb
        (Printf.sprintf "domains %d reported" domains)
        true
        (contains out (Printf.sprintf "domains: %d" domains));
      checkb
        (Printf.sprintf "metrics byte-identical at %d domains" domains)
        true (m = m1);
      checkb
        (Printf.sprintf "timeline byte-identical at %d domains" domains)
        true (t = t1);
      Alcotest.(check (list string))
        (Printf.sprintf "decisions identical at %d domains" domains)
        (decisions out1) (decisions out))
    (* twice at 2 domains: their packet uid draws interleave differently
       from run to run *)
    [ 2; 4; 2 ];
  Sys.remove path;
  Sys.remove variant;
  Sys.remove policy;
  Sys.remove faults

(* --domains 2 must reproduce the sequential run byte-for-byte: same
   metrics JSON, same timeline. *)
let cli_run_domains_parity () =
  let path = write_program forwarder in
  let m1 = Filename.temp_file "metrics" ".json" in
  let t1 = Filename.temp_file "timeline" ".json" in
  let m2 = Filename.temp_file "metrics" ".json" in
  let t2 = Filename.temp_file "timeline" ".json" in
  let code1, _ =
    run
      [ "run"; path; "-n"; "25"; "--metrics-out"; m1; "--timeline-out"; t1 ]
  in
  let code2, output =
    run
      [ "run"; path; "-n"; "25"; "--domains"; "2"; "--metrics-out"; m2;
        "--timeline-out"; t2 ]
  in
  Sys.remove path;
  check "sequential exit 0" 0 code1;
  check "partitioned exit 0" 0 code2;
  checkb "reports the shard" true (contains output "domains: 2");
  let j1 = read_and_remove m1 and j2 = read_and_remove m2 in
  checkb "metrics byte-identical across domains" true (j1 = j2);
  let l1 = read_and_remove t1 and l2 = read_and_remove t2 in
  checkb "timeline byte-identical across domains" true (l1 = l2)

let cli_run_domains_invalid () =
  let path = write_program forwarder in
  let code, output = run [ "run"; path; "--domains"; "0" ] in
  checkb "nonzero exit" true (code <> 0);
  checkb "names the bound" true (contains output "--domains must be >= 1");
  let code2, output2 = run [ "run"; path; "--domains"; "64" ] in
  Sys.remove path;
  checkb "oversplit rejected" true (code2 <> 0);
  checkb "says how far the topology splits" true
    (contains output2 "splits into")

let cli_run_faults_not_finite () =
  (* A NaN fault time used to reach Engine.schedule and end the run with
     an uncaught exception; the parser now refuses it by line. *)
  let path = write_program forwarder in
  let faults =
    write_tmp ".faults"
      "at nan until 14.0 congest lan bandwidth 0.001 queue 0.002\n"
  in
  let code, output =
    run [ "run"; path; "-n"; "40"; "--faults"; faults ]
  in
  Sys.remove path;
  Sys.remove faults;
  check "exit 1" 1 code;
  checkb "names the line and field" true
    (contains output "line 1: at: not a finite number (nan)");
  checkb "no uncaught exception" false (contains output "uncaught")

let cli_adapt_bad_policy () =
  let path = write_program forwarder in
  let policy = write_tmp ".pol" "period 0.5\nrule oops: when x ?? 3 do swap a b\n" in
  let code, output = run [ "adapt"; path; "--policy"; policy ] in
  Sys.remove path;
  Sys.remove policy;
  checkb "nonzero exit" true (code <> 0);
  checkb "names the line" true (contains output "line 2")

let cli_adapt_unwired_signal () =
  let path = write_program forwarder in
  let policy =
    write_tmp ".pol" "rule r: when queue_delay > 1 for 1 do escalate \"x\"\n"
  in
  let code, output = run [ "adapt"; path; "--policy"; policy ] in
  Sys.remove path;
  Sys.remove policy;
  checkb "nonzero exit" true (code <> 0);
  checkb "says the signal is not wired" true (contains output "not wired")

let () =
  Alcotest.run "planpc-cli"
    [
      ( "planpc",
        [
          Alcotest.test_case "check ok" `Quick cli_check_ok;
          Alcotest.test_case "check bad" `Quick cli_check_bad;
          Alcotest.test_case "verify pass and fail" `Quick cli_verify_pass_and_fail;
          Alcotest.test_case "ast reparses" `Quick cli_ast_reparses;
          Alcotest.test_case "bytecode" `Quick cli_bytecode;
          Alcotest.test_case "time" `Quick cli_time;
          Alcotest.test_case "prims" `Quick cli_prims;
          Alcotest.test_case "simulate" `Quick cli_simulate;
          Alcotest.test_case "simulate backend" `Quick cli_simulate_backend;
          Alcotest.test_case "missing file" `Quick cli_missing_file;
          Alcotest.test_case "stats" `Quick cli_stats;
          Alcotest.test_case "run metrics deterministic" `Quick
            cli_run_metrics_deterministic;
          Alcotest.test_case "run timeline" `Quick cli_run_timeline;
          Alcotest.test_case "deploy" `Quick cli_deploy;
          Alcotest.test_case "deploy rejected" `Quick cli_deploy_rejected;
          Alcotest.test_case "undeploy" `Quick cli_undeploy;
          Alcotest.test_case "deploy retry budget aborts" `Quick
            cli_deploy_retry_budget_aborts;
          Alcotest.test_case "adapt empty policy parity" `Quick
            cli_adapt_empty_policy_parity;
          Alcotest.test_case "adapt closed loop" `Quick cli_adapt_closed_loop;
          Alcotest.test_case "adapt domains parity" `Quick
            cli_adapt_domains_parity;
          Alcotest.test_case "run --domains parity" `Quick
            cli_run_domains_parity;
          Alcotest.test_case "run --domains invalid" `Quick
            cli_run_domains_invalid;
          Alcotest.test_case "run --faults not finite" `Quick
            cli_run_faults_not_finite;
          Alcotest.test_case "adapt bad policy" `Quick cli_adapt_bad_policy;
          Alcotest.test_case "adapt unwired signal" `Quick
            cli_adapt_unwired_signal;
        ] );
    ]
