(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation.

     dune exec bench/main.exe            -- everything (fig3 fig6 fig7 fig8
                                            mpeg verify ext)
     dune exec bench/main.exe -- fig8    -- one artifact
     dune exec bench/main.exe -- all --quick   -- shortened runs
     dune exec bench/main.exe -- fig6 --metrics-out m.json
                                         -- also dump the metrics registry

   Each section prints the measured data next to the shape the paper
   reports; EXPERIMENTS.md records a full comparison. *)

let quick = ref false
let metrics_out = ref None
let json_out = ref None

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* The machine-readable mirror of the printed tables: each section records
   its headline numbers under its own key; --json-out writes them as one
   document ("planp-bench/1").  Only the sections that actually ran
   appear. *)
let summary : (string * Obs.Json.t) list ref = ref []
let record key json = summary := !summary @ [ (key, json) ]

(* ------------------------------------------------------------------ *)
(* The five bundled ASPs -- the same set as the paper's Fig. 3.        *)
(* ------------------------------------------------------------------ *)

let bundled_asps () =
  [
    ("audio broadcasting (router)", Asp.Audio_asp.router_program ~iface:1 (), 68);
    ("audio broadcasting (client)", Asp.Audio_asp.client_program (), 28);
    ( "extensible web server",
      Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
        ~servers:("10.3.0.1", "10.3.0.2") (),
      91 );
    ("MPEG (monitor)", Asp.Mpeg_asp.monitor_program ~server:"10.6.0.1" (), 161);
    ("MPEG (client)", Asp.Mpeg_asp.capture_program (), 53);
  ]

let checked_of source =
  Planp_runtime.Prims.install ();
  match Extnet.check_source source with
  | Ok checked -> checked
  | Error message -> failwith message

let globals_of checked =
  let world, _, _ = Planp_runtime.World.dummy () in
  Planp_runtime.Interp.eval_globals ~world checked.Planp.Typecheck.program

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

(* Runs a grouped set of Bechamel tests and returns (name, ns-per-run). *)
let bechamel_ns_per_run tests =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if !quick then 0.2 else 0.5))
      ~kde:None ()
  in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"bench" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name est acc ->
      match Analyze.OLS.estimates est with
      | Some (ns :: _) -> (name, ns) :: acc
      | Some [] | None -> acc)
    results []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Fig. 3 -- code generation time                                      *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Fig. 3 -- code generation time per ASP";
  Printf.printf
    "%-30s %7s %11s | %12s %12s %12s\n" "program" "lines" "paper-lines"
    "jit (ms)" "bytecode(ms)" "interp (ms)";
  let open Bechamel in
  let rows = ref [] in
  List.iter
    (fun (name, source, paper_lines) ->
      let checked = checked_of source in
      let globals = globals_of checked in
      let tests =
        List.map
          (fun backend ->
            Test.make
              ~name:backend.Planp_runtime.Backend.backend_name
              (Staged.stage (fun () ->
                   ignore
                     (backend.Planp_runtime.Backend.compile checked ~globals))))
          (Planp_jit.Backends.all ())
      in
      let results = bechamel_ns_per_run tests in
      let ms backend_name =
        match
          List.find_opt
            (fun (n, _) ->
              n = "bench/" ^ backend_name || n = backend_name)
            results
        with
        | Some (_, ns) -> ns /. 1e6
        | None -> nan
      in
      Printf.printf "%-30s %7d %11d | %12.4f %12.4f %12.4f\n" name
        (Planp.Ast.line_count source)
        paper_lines (ms "jit") (ms "bytecode") (ms "interp");
      rows :=
        !rows
        @ [
            Obs.Json.Obj
              [
                ("program", Obs.Json.String name);
                ("lines", Obs.Json.Int (Planp.Ast.line_count source));
                ("paper_lines", Obs.Json.Int paper_lines);
                ("jit_ms", Obs.Json.Float (ms "jit"));
                ("bytecode_ms", Obs.Json.Float (ms "bytecode"));
                ("interp_ms", Obs.Json.Float (ms "interp"));
              ];
          ])
    (bundled_asps ());
  record "fig3" (Obs.Json.Obj [ ("codegen", Obs.Json.List !rows) ]);
  Printf.printf
    "\npaper (Tempo-generated JIT on a 170 MHz Ultra-1): 6.1 .. 33.9 ms,\n\
     growing with program size; the shape to check is codegen time scaling\n\
     with lines while staying in the low-millisecond range.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 6 -- audio bandwidth adaptation timeline                       *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Fig. 6 -- audio traffic under stepped load (with adaptation)";
  let config =
    if !quick then Asp.Audio_experiment.quick_config ()
    else Asp.Audio_experiment.fig6_config ()
  in
  let result = Asp.Audio_experiment.run config in
  let steps = config.Asp.Audio_experiment.schedule in
  Printf.printf "load schedule: %s (kB/s of cross traffic)\n\n"
    (String.concat ", "
       (List.map (fun (t, r) -> Printf.sprintf "t=%.0fs->%.0f" t r) steps));
  Printf.printf "%8s %10s  %s\n" "time (s)" "kB/s" "bandwidth";
  List.iter
    (fun (t, kbps) ->
      Printf.printf "%8.1f %10.1f  %s\n" t kbps
        (String.make (int_of_float (kbps /. 4.0)) '#'))
    result.Asp.Audio_experiment.series;
  let s16, m16, m8 = result.Asp.Audio_experiment.wire_quality_counts in
  Printf.printf
    "\nwire qualities: 16-bit stereo %d, 16-bit mono %d, 8-bit mono %d frames\n"
    s16 m16 m8;
  Printf.printf "frames sent %d, received %d, drops %d\n"
    result.Asp.Audio_experiment.frames_sent
    result.Asp.Audio_experiment.frames_received
    result.Asp.Audio_experiment.segment_drops;
  record "fig6"
    (Obs.Json.Obj
       [
         ("frames_sent", Obs.Json.Int result.Asp.Audio_experiment.frames_sent);
         ( "frames_received",
           Obs.Json.Int result.Asp.Audio_experiment.frames_received );
         ( "segment_drops",
           Obs.Json.Int result.Asp.Audio_experiment.segment_drops );
         ( "silent_periods",
           Obs.Json.Int result.Asp.Audio_experiment.silent_periods );
         ("wire_16bit_stereo_frames", Obs.Json.Int s16);
         ("wire_16bit_mono_frames", Obs.Json.Int m16);
         ("wire_8bit_mono_frames", Obs.Json.Int m8);
         ( "series",
           Obs.Json.List
             (List.map
                (fun (t, kbps) ->
                  Obs.Json.Obj
                    [ ("t_s", Obs.Json.Float t); ("kbps", Obs.Json.Float kbps) ])
                result.Asp.Audio_experiment.series) );
       ]);
  Printf.printf
    "\npaper: 176 kB/s (16-bit stereo) with no load; heavy load at 100 s ->\n\
     immediate drop to 44 kB/s (8-bit mono); medium load at 220 s ->\n\
     oscillates 44..88; light load at 340 s -> 88 kB/s (16-bit mono).\n"

(* ------------------------------------------------------------------ *)
(* Fig. 7 -- silent periods with and without adaptation                *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Fig. 7 -- silent periods during playback";
  let duration = if !quick then 20.0 else 60.0 in
  let loads =
    [ ("no load", 0.0); ("light (900 kB/s)", 900.0);
      ("medium (1050 kB/s)", 1050.0); ("heavy (1150 kB/s)", 1150.0) ]
  in
  Printf.printf "%-20s | %-28s | %-28s\n" "cross load"
    "with adaptation" "without adaptation";
  Printf.printf "%-20s | %-13s %-14s | %-13s %-14s\n" "" "silent periods"
    "frames lost" "silent periods" "frames lost";
  let load_rows = ref [] in
  List.iter
    (fun (label, load) ->
      let run adapt =
        Asp.Audio_experiment.run
          {
            (Asp.Audio_experiment.quick_config ~adapt ()) with
            Asp.Audio_experiment.duration;
            schedule = [ (0.0, load) ];
          }
      in
      let with_adaptation = run true in
      let without = run false in
      let lost (r : Asp.Audio_experiment.result) =
        r.Asp.Audio_experiment.frames_sent
        - r.Asp.Audio_experiment.frames_received
      in
      Printf.printf "%-20s | %13d %14d | %13d %14d\n" label
        with_adaptation.Asp.Audio_experiment.silent_periods
        (lost with_adaptation)
        without.Asp.Audio_experiment.silent_periods (lost without);
      load_rows :=
        !load_rows
        @ [
            Obs.Json.Obj
              [
                ("load", Obs.Json.String label);
                ("load_kbps", Obs.Json.Float load);
                ( "adapted_silent_periods",
                  Obs.Json.Int with_adaptation.Asp.Audio_experiment.silent_periods
                );
                ("adapted_frames_lost", Obs.Json.Int (lost with_adaptation));
                ( "unadapted_silent_periods",
                  Obs.Json.Int without.Asp.Audio_experiment.silent_periods );
                ("unadapted_frames_lost", Obs.Json.Int (lost without));
              ];
          ])
    loads;
  Printf.printf
    "\npaper: adaptation reduces the number of gaps in audio playback;\n\
     without adaptation gaps grow with the load.\n";
  (* Policy ablation -- the paper's point that "strategies can be quickly
     developed and experimented with" (the router ASP was written in one
     day): three threshold policies under the heavy load. *)
  Printf.printf "\npolicy ablation (heavy load, %gs):\n" duration;
  Printf.printf "  %-34s %8s %8s %14s\n" "policy (mono16/mono8 thresholds)"
    "periods" "lost" "mean kB/s";
  let policy_rows = ref [] in
  List.iter
    (fun (label, policy) ->
      let result =
        Asp.Audio_experiment.run
          {
            (Asp.Audio_experiment.quick_config ()) with
            Asp.Audio_experiment.duration;
            schedule = [ (0.0, 1150.0) ];
            policy;
          }
      in
      let mean_rate =
        match result.Asp.Audio_experiment.series with
        | [] -> 0.0
        | series ->
            List.fold_left (fun acc (_, r) -> acc +. r) 0.0 series
            /. float_of_int (List.length series)
      in
      Printf.printf "  %-34s %8d %8d %14.1f\n" label
        result.Asp.Audio_experiment.silent_periods
        (result.Asp.Audio_experiment.frames_sent
        - result.Asp.Audio_experiment.frames_received)
        mean_rate;
      policy_rows :=
        !policy_rows
        @ [
            Obs.Json.Obj
              [
                ("policy", Obs.Json.String label);
                ( "silent_periods",
                  Obs.Json.Int result.Asp.Audio_experiment.silent_periods );
                ( "frames_lost",
                  Obs.Json.Int
                    (result.Asp.Audio_experiment.frames_sent
                    - result.Asp.Audio_experiment.frames_received) );
                ("mean_kbps", Obs.Json.Float mean_rate);
              ];
          ])
    [
      ("conservative (800/1000)",
        { Asp.Audio_asp.mono16_above = 800; mono8_above = 1000 });
      ("default (950/1150)", Asp.Audio_asp.default_policy);
      ("optimistic (1150/1245)",
        { Asp.Audio_asp.mono16_above = 1150; mono8_above = 1245 });
      ("complacent (1250/1400)",
        { Asp.Audio_asp.mono16_above = 1250; mono8_above = 1400 });
    ];
  record "fig7"
    (Obs.Json.Obj
       [
         ("loads", Obs.Json.List !load_rows);
         ("policy_ablation", Obs.Json.List !policy_rows);
       ])

(* ------------------------------------------------------------------ *)
(* Fig. 8 -- HTTP cluster throughput                                   *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "Fig. 8 -- HTTP server performance (replies/s vs offered load)";
  let config =
    {
      Asp.Http_experiment.default_config with
      duration = (if !quick then 12.0 else 25.0);
      warmup = 5.0;
      client_count = 16;
    }
  in
  let workers_list = if !quick then [ 16; 48 ] else [ 8; 16; 24; 32; 48; 64 ] in
  let setups =
    [
      ("a", Asp.Http_experiment.Single);
      ("b", Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit);
      ("c", Asp.Http_experiment.Native_gateway);
      ("d", Asp.Http_experiment.Disjoint);
    ]
  in
  Printf.printf "%-36s %s\n" "configuration"
    (String.concat ""
       (List.map
          (fun w -> Printf.sprintf "%9s" (string_of_int w ^ "w"))
          workers_list));
  let peaks =
    List.map
      (fun (label, setup) ->
        let points = Asp.Http_experiment.run_sweep config setup ~workers_list in
        let last = List.nth points (List.length points - 1) in
        Printf.printf "%-36s %s   p95=%.0fms\n"
          (Printf.sprintf "(%s) %s" label (Asp.Http_experiment.setup_name setup))
          (String.concat ""
             (List.map
                (fun p ->
                  Printf.sprintf "%9.0f" p.Asp.Http_experiment.replies_per_s)
                points))
          last.Asp.Http_experiment.p95_response_ms;
        let peak =
          List.fold_left
            (fun acc p -> Float.max acc p.Asp.Http_experiment.replies_per_s)
            0.0 points
        in
        (label, peak))
      setups
  in
  let peak label = List.assoc label peaks in
  Printf.printf "\nsummary (saturation throughputs):\n";
  Printf.printf "  ASP gateway / single server      = %.2fx   (paper: 1.75x)\n"
    (peak "b" /. peak "a");
  Printf.printf "  ASP gateway / built-in gateway   = %.2fx   (paper: ~1.0)\n"
    (peak "b" /. peak "c");
  Printf.printf "  ASP gateway / disjoint clients   = %.0f%%    (paper: 85%%)\n"
    (100.0 *. peak "b" /. peak "d");
  (* Ablation: what an interpreted (non-JIT) gateway would do. *)
  let interp_point =
    Asp.Http_experiment.run_point config
      (Asp.Http_experiment.Asp_gateway Planp_jit.Backends.interp)
      ~workers:(List.nth workers_list (List.length workers_list - 1))
  in
  Printf.printf
    "  ablation: interpreted ASP gateway saturates at %.0f replies/s -- the\n\
     JIT is what makes the ASP viable (paper 2.2).\n"
    interp_point.Asp.Http_experiment.replies_per_s;
  record "fig8"
    (Obs.Json.Obj
       [
         ( "peak_replies_per_s",
           Obs.Json.Obj
             (List.map
                (fun (label, peak) -> (label, Obs.Json.Float peak))
                peaks) );
         ("gateway_vs_single", Obs.Json.Float (peak "b" /. peak "a"));
         ("gateway_vs_native", Obs.Json.Float (peak "b" /. peak "c"));
         ("gateway_vs_disjoint", Obs.Json.Float (peak "b" /. peak "d"));
         ( "interp_ablation_replies_per_s",
           Obs.Json.Float interp_point.Asp.Http_experiment.replies_per_s );
       ])

(* ------------------------------------------------------------------ *)
(* 3.3 -- point-to-point to multipoint MPEG                            *)
(* ------------------------------------------------------------------ *)

let mpeg () =
  section "3.3 -- MPEG: point-to-point server shared by one segment";
  let config = Asp.Mpeg_experiment.default_config () in
  let config =
    if !quick then
      { config with Asp.Mpeg_experiment.movie_frames = 120; duration = 12.0;
        client_starts = [ 0.5; 2.0; 4.0 ] }
    else config
  in
  let show label (r : Asp.Mpeg_experiment.result) =
    Printf.printf
      "  %-14s connections=%d  server frames=%4d  client frames=[%s]  segment video=%d KB\n"
      label r.Asp.Mpeg_experiment.server_streams
      r.Asp.Mpeg_experiment.server_frames_sent
      (String.concat ";"
         (List.map string_of_int r.Asp.Mpeg_experiment.client_frames))
      (r.Asp.Mpeg_experiment.segment_video_bytes / 1024)
  in
  let json_of (r : Asp.Mpeg_experiment.result) =
    Obs.Json.Obj
      [
        ("connections", Obs.Json.Int r.Asp.Mpeg_experiment.server_streams);
        ( "server_frames",
          Obs.Json.Int r.Asp.Mpeg_experiment.server_frames_sent );
        ( "client_frames",
          Obs.Json.List
            (List.map
               (fun n -> Obs.Json.Int n)
               r.Asp.Mpeg_experiment.client_frames) );
        ( "segment_video_bytes",
          Obs.Json.Int r.Asp.Mpeg_experiment.segment_video_bytes );
      ]
  in
  let with_asps = Asp.Mpeg_experiment.run config in
  let baseline =
    Asp.Mpeg_experiment.run { config with Asp.Mpeg_experiment.with_asps = false }
  in
  show "with ASPs" with_asps;
  show "baseline" baseline;
  record "mpeg"
    (Obs.Json.Obj
       [ ("with_asps", json_of with_asps); ("baseline", json_of baseline) ]);
  Printf.printf
    "\npaper 3.3: with the monitor and capture ASPs, one point-to-point\n\
     connection serves every client on the segment; the server is not\n\
     modified. Later clients join the live stream (fewer frames).\n"

(* ------------------------------------------------------------------ *)
(* Verifier -- analysis cost and verdicts (2.1)                        *)
(* ------------------------------------------------------------------ *)

let verify () =
  section "Verifier -- safety analyses over the bundled ASPs";
  Printf.printf "%-30s %-8s %8s %8s %10s\n" "program" "verdict" "states"
    "transit." "fix-iters";
  let verdict_rows = ref [] in
  List.iter
    (fun (name, source, _) ->
      let program = Planp.Parser.parse source in
      let report = Planp_analysis.Verifier.verify program in
      Printf.printf "%-30s %-8s %8d %8d %10d\n" name
        (if Planp_analysis.Verifier.passes report then "PROVED" else "REJECTED")
        report.Planp_analysis.Verifier.global_termination
          .Planp_analysis.Global_termination.states_explored
        report.Planp_analysis.Verifier.global_termination
          .Planp_analysis.Global_termination.transitions
        report.Planp_analysis.Verifier.duplication
          .Planp_analysis.Duplication.iterations;
      verdict_rows :=
        !verdict_rows
        @ [
            Obs.Json.Obj
              [
                ("program", Obs.Json.String name);
                ( "proved",
                  Obs.Json.Bool (Planp_analysis.Verifier.passes report) );
                ( "states",
                  Obs.Json.Int
                    report.Planp_analysis.Verifier.global_termination
                      .Planp_analysis.Global_termination.states_explored );
                ( "transitions",
                  Obs.Json.Int
                    report.Planp_analysis.Verifier.global_termination
                      .Planp_analysis.Global_termination.transitions );
              ];
          ])
    (bundled_asps ());
  record "verify" (Obs.Json.Obj [ ("bundled", Obs.Json.List !verdict_rows) ]);
  (* Counterexamples: programs the conservative analyses must reject. *)
  let reject name source =
    let report = Planp_analysis.Verifier.verify (Planp.Parser.parse source) in
    Printf.printf "%-30s %-8s (%s)\n" name
      (if Planp_analysis.Verifier.passes report then "PROVED?!" else "REJECTED")
      (Option.value ~default:"" (Planp_analysis.Verifier.first_failure report))
  in
  reject "flooding multicast"
    "channel flood(ps : unit, ss : unit, p : ip*blob) is (OnNeighbor(flood, p); (ps, ss))";
  reject "destination ping-pong"
    "channel network(ps : int, ss : int, p : ip*tcp*blob) is\n\
     if ps mod 2 = 0 then (OnRemote(network, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps+1, ss))\n\
     else (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps+1, ss))";
  reject "packet dropper"
    "channel network(ps : int, ss : int, p : ip*tcp*blob) is\n\
     if tcpDst(#2 p) = 80 then (OnRemote(network, p); (ps, ss)) else (ps, ss)";
  (* Scaling: synthetic chains of c channels, each rewriting among d
     literal destinations, to exhibit the r*d-ish growth of the explored
     state space. *)
  Printf.printf "\nanalysis scaling on synthetic programs (c channels, d destinations):\n";
  Printf.printf "  %4s %4s %10s %12s %12s\n" "c" "d" "states" "transitions"
    "time (ms)";
  let synthetic ~channels ~dests =
    let buffer = Buffer.create 1024 in
    for i = 0 to channels - 1 do
      let target = if i = channels - 1 then "deliver(p); " else "" in
      let next = Printf.sprintf "h%d" (i + 1) in
      Buffer.add_string buffer
        (Printf.sprintf "channel h%d(ps : int, ss : int, p : ip*udp*int) is\n" i);
      if i = channels - 1 then
        Buffer.add_string buffer (Printf.sprintf "  (%s(ps, ss))\n" target)
      else begin
        (* pick among d literal destinations *)
        Buffer.add_string buffer "  (";
        for d = 0 to dests - 1 do
          if d < dests - 1 then
            Buffer.add_string buffer
              (Printf.sprintf
                 "if ps mod %d = %d then OnRemote(%s, (ipDestSet(#1 p, 10.9.%d.%d), #2 p, #3 p)) else "
                 dests d next (i mod 250) d)
          else
            Buffer.add_string buffer
              (Printf.sprintf
                 "OnRemote(%s, (ipDestSet(#1 p, 10.9.%d.%d), #2 p, #3 p))"
                 next (i mod 250) d)
        done;
        Buffer.add_string buffer "; (ps + 1, ss))\n"
      end
    done;
    Buffer.contents buffer
  in
  List.iter
    (fun (channels, dests) ->
      let program = Planp.Parser.parse (synthetic ~channels ~dests) in
      let started = Unix.gettimeofday () in
      let report = Planp_analysis.Global_termination.analyze program in
      let elapsed = (Unix.gettimeofday () -. started) *. 1000.0 in
      Printf.printf "  %4d %4d %10d %12d %12.3f\n" channels dests
        report.Planp_analysis.Global_termination.states_explored
        report.Planp_analysis.Global_termination.transitions elapsed)
    [ (2, 2); (4, 2); (8, 2); (8, 4); (16, 4); (16, 8); (32, 8) ];
  Printf.printf
    "\npaper 2.1: the state space is of the order r*d*2^d (small), the\n\
     duplication fix-point converges in at most 2^c iterations; legitimate\n\
     but unprovable protocols (multicast) need the authenticated path.\n"

(* ------------------------------------------------------------------ *)
(* Extensions -- the paper's 5 future work, implemented                *)
(* ------------------------------------------------------------------ *)

let ext () =
  section "Extensions -- fault tolerance and image distillation (paper 5)";
  Printf.printf "-- fault-tolerant HTTP cluster (server0 crashes mid-run) --
";
  let duration = if !quick then 16.0 else 30.0 in
  let kill_at = if !quick then 6.0 else 10.0 in
  let ft_config failover =
    { (Asp.Http_ft.default_config ~failover ()) with
      Asp.Http_ft.duration; kill_at }
  in
  let show label (r : Asp.Http_ft.result) =
    Printf.printf
      "  %-18s healthy %7.1f replies/s | after crash %7.1f replies/s | retries %d
"
      label r.Asp.Http_ft.before_kill_rate r.Asp.Http_ft.after_kill_rate
      r.Asp.Http_ft.stalled_retries
  in
  let json_of_ft (r : Asp.Http_ft.result) =
    Obs.Json.Obj
      [
        ("healthy_replies_per_s", Obs.Json.Float r.Asp.Http_ft.before_kill_rate);
        ( "after_crash_replies_per_s",
          Obs.Json.Float r.Asp.Http_ft.after_kill_rate );
        ("stalled_retries", Obs.Json.Int r.Asp.Http_ft.stalled_retries);
      ]
  in
  let failover = Asp.Http_ft.run (ft_config true) in
  let plain = Asp.Http_ft.run (ft_config false) in
  show "failover gateway" failover;
  show "plain gateway" plain;
  record "ext"
    (Obs.Json.Obj
       [
         ("failover_gateway", json_of_ft failover);
         ("plain_gateway", json_of_ft plain);
       ]);
  Printf.printf
    "  (the failover ASP reroutes new connections to the survivor through
    \   its health channel; the plain Fig. 2 gateway keeps half of them
    \   pointed at the dead machine)

";
  Printf.printf "-- load-balancing strategies (48 client processes) --\n";
  let strat_config =
    { Asp.Http_experiment.default_config with
      duration = (if !quick then 10.0 else 20.0); warmup = 4.0;
      client_count = 16 }
  in
  List.iter
    (fun strategy ->
      let point =
        Asp.Http_experiment.run_point
          { strat_config with Asp.Http_experiment.strategy }
          (Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit)
          ~workers:48
      in
      let s0, s1 = point.Asp.Http_experiment.server_loads in
      Printf.printf "  %-18s %7.1f replies/s  split=(%d,%d)\n"
        (Asp.Http_asp.strategy_name strategy)
        point.Asp.Http_experiment.replies_per_s s0 s1)
    [ Asp.Http_asp.Modulo; Asp.Http_asp.Source_hash; Asp.Http_asp.Weighted (3, 1) ];
  Printf.printf
    "  (source-hash pins each client to one server -- affinity without table\n   growth; balance then depends on the client population. weighted suits\n   heterogeneous clusters.)\n\n";
  Printf.printf "-- image distillation over a 128 kb/s link --
";
  let count = if !quick then 8 else 20 in
  let show label (r : Asp.Image_asp.result) =
    Printf.printf
      "  %-18s %6.1f ms/image %7.0f bytes/image  fidelity RMS %5.1f/255
"
      label
      (r.Asp.Image_asp.latency_s *. 1000.0)
      r.Asp.Image_asp.bytes_per_image r.Asp.Image_asp.fidelity_rms
  in
  show "distilling router" (Asp.Image_asp.run_experiment ~count ~distill:true ());
  show "plain router" (Asp.Image_asp.run_experiment ~count ~distill:false ());
  Printf.printf
    "  (one distillation level halves resolution and depth; the ASP picks
    \   the level from linkCapacity, so faster links distill less)
"

(* ------------------------------------------------------------------ *)
(* perf -- the packet fast path: packets/sec and allocs/packet         *)
(* ------------------------------------------------------------------ *)

let smoke = ref false

(* --full: run the scale meshes at ~10^7 events instead of the default
   1.5M.  The committed baseline stays pinned to the gated words/event
   numbers, which are size-independent, so --full changes how long the
   measurement runs, never what the gate compares. *)
let full = ref false
let perf_out = ref None
let perf_check = ref None

(* Sections of the committed perf baseline ("planp-bench-perf/1"): [perf]
   contributes "asps", [scale] contributes "scale".  The document is
   written once at exit so `perf scale --perf-out FILE` produces a single
   combined baseline. *)
let baseline_sections : (string * Obs.Json.t) list ref = ref []
let baseline_add key json = baseline_sections := !baseline_sections @ [ (key, json) ]

(* The three deployed ASPs, each with one representative packet that takes
   the channel's main branch.  The workload is the per-packet execution
   path alone: decode once outside the loop, then run the compiled channel
   over the same decoded value while threading (ps, ss) like the runtime
   does. *)
let perf_workloads () =
  let audio_packet =
    Netsim.Packet.udp
      ~src:(Netsim.Addr.of_string "10.1.0.7")
      ~dst:(Netsim.Addr.of_string "239.1.0.1")
      ~src_port:Asp.Audio_app.audio_port ~dst_port:Asp.Audio_app.audio_port
      (Planp_runtime.Audio_frame.Wire.synth ~seq:0 ~frames:20 ~phase:0)
  in
  let http_packet =
    Netsim.Packet.tcp
      ~src:(Netsim.Addr.of_string "192.168.0.7")
      ~dst:(Netsim.Addr.of_string "10.3.0.100")
      ~src_port:4242 ~dst_port:80
      (Netsim.Payload.of_string "GET /index.html HTTP/1.0")
  in
  let mpeg_packet =
    (* A PLAY request: 'P', file id, video port -- the monitor's first
       network channel records it in the connection table. *)
    let w = Netsim.Payload.Writer.create () in
    Netsim.Payload.Writer.u8 w (Char.code 'P');
    Netsim.Payload.Writer.u32 w 3;
    Netsim.Payload.Writer.u32 w 7101;
    Netsim.Packet.tcp
      ~src:(Netsim.Addr.of_string "10.6.0.9")
      ~dst:(Netsim.Addr.of_string "10.6.0.1")
      ~src_port:4411 ~dst_port:554
      (Netsim.Payload.Writer.finish w)
  in
  [
    ("audio_router", Asp.Audio_asp.router_program ~iface:1 (), audio_packet);
    ( "http_gateway",
      Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
        ~servers:("10.3.0.1", "10.3.0.2") (),
      http_packet );
    ("mpeg_monitor", Asp.Mpeg_asp.monitor_program ~server:"10.6.0.1" (), mpeg_packet);
  ]

type perf_point = { pkts_per_s : float; words_per_pkt : float }

(* Initial protocol and channel state, exactly as Runtime.install computes
   them. *)
let perf_states checked globals chan =
  let world, _, _ = Planp_runtime.World.dummy () in
  let proto =
    match checked.Planp.Typecheck.proto_init with
    | Some init -> Planp_runtime.Interp.eval_const ~world ~globals init
    | None -> Planp_runtime.Value.default_of checked.Planp.Typecheck.proto_type
  in
  let chan_state =
    match chan.Planp.Ast.initstate with
    | Some init -> Planp_runtime.Interp.eval_const ~world ~globals init
    | None -> Planp_runtime.Value.default_of chan.Planp.Ast.ss_type
  in
  (proto, chan_state)

let perf_measure ~warmup ~alloc_iters ~min_seconds exec world pkt ps0 ss0 =
  let ps = ref ps0 and ss = ref ss0 in
  let batch count =
    for _ = 1 to count do
      let ps', ss' = exec world ~ps:!ps ~ss:!ss ~pkt in
      ps := ps';
      ss := ss'
    done
  in
  batch warmup;
  (* Allocation rate over a fixed, deterministic iteration count: the
     steady-state minor-heap words each packet costs. *)
  let words0 = Gc.minor_words () in
  batch alloc_iters;
  let words_per_pkt = (Gc.minor_words () -. words0) /. float_of_int alloc_iters in
  (* Throughput over however many batches it takes to fill the time
     budget, so fast backends still get a stable wall-clock sample. *)
  let t0 = Unix.gettimeofday () in
  let iters = ref 0 in
  while Unix.gettimeofday () -. t0 < min_seconds do
    batch alloc_iters;
    iters := !iters + alloc_iters
  done;
  let dt = Unix.gettimeofday () -. t0 in
  { pkts_per_s = float_of_int !iters /. dt; words_per_pkt }

let perf_backends =
  [
    ("interp", Planp_runtime.Interp.backend);
    ("bytecode", Planp_jit.Backends.bytecode);
    ("jit", Planp_jit.Backends.jit);
  ]

(* The paper's "built-in C" for the gateway: the native gateway's decision
   ([Http_asp.native_gateway]) over the raw packet, run through the same
   loop as the compiled channels. The threaded states pass through
   untouched. *)
let native_gateway packet =
  let route, _ =
    Asp.Http_asp.native_gateway
      ~vip:(Netsim.Addr.of_string "10.3.0.100")
      ~servers:(Netsim.Addr.of_string "10.3.0.1", Netsim.Addr.of_string "10.3.0.2")
      ()
  in
  fun (_ : Planp_runtime.World.t) ~ps ~ss ~pkt:_ ->
    ignore (Sys.opaque_identity (route packet));
    (ps, ss)

let perf_run () =
  let warmup = if !smoke then 200 else 1_000 in
  let alloc_iters = if !smoke then 2_000 else 20_000 in
  let min_seconds = if !smoke then 0.02 else 0.3 in
  let null_world =
    let dummy, _, _ = Planp_runtime.World.dummy () in
    { dummy with
      Planp_runtime.World.emit = (fun _ ~chan:_ _ -> ());
      print = (fun _ -> ()) }
  in
  List.map
    (fun (key, source, packet) ->
      let checked = checked_of source in
      let globals = globals_of checked in
      let rows =
        List.map
          (fun (backend_name, backend) ->
            let compiled = backend.Planp_runtime.Backend.compile checked ~globals in
            (* First channel that decodes this packet -- same choice the
               runtime dispatcher makes for an untagged packet. *)
            let chan, exec, pkt =
              let rec pick = function
                | [] -> failwith (key ^ ": no channel matches the bench packet")
                | (chan, exec) :: rest -> (
                    match
                      Planp_runtime.Pkt_codec.decode chan.Planp.Ast.pkt_type packet
                    with
                    | Some value -> (chan, exec, value)
                    | None -> pick rest)
              in
              pick compiled
            in
            let ps0, ss0 = perf_states checked globals chan in
            ( backend_name,
              perf_measure ~warmup ~alloc_iters ~min_seconds exec null_world pkt
                ps0 ss0 ))
          perf_backends
      in
      let native =
        if key = "http_gateway" then
          [
            ( "native",
              perf_measure ~warmup ~alloc_iters ~min_seconds
                (native_gateway packet) null_world Planp_runtime.Value.Vunit
                (Planp_runtime.Value.Vint 0) Planp_runtime.Value.Vunit );
          ]
        else []
      in
      (key, rows @ native))
    (perf_workloads ())

(* Same-run throughput ratios: the JIT's speedup over the interpreter
   (gated on the audio router), and the JIT's time per packet over the
   native gateway's (the paper's JIT ≈ C claim; recorded, not gated). *)
let perf_ratio rows a b =
  match (List.assoc_opt a rows, List.assoc_opt b rows) with
  | Some a, Some b -> Some (a.pkts_per_s /. b.pkts_per_s)
  | _ -> None

let perf_ratios rows =
  List.filter_map
    (fun (name, ratio) -> Option.map (fun r -> (name, r)) ratio)
    [
      ("jit_speedup_over_interp", perf_ratio rows "jit" "interp");
      ("jit_time_over_native", perf_ratio rows "native" "jit");
    ]

let perf_asps_json results =
  Obs.Json.Obj
    (List.map
       (fun (key, rows) ->
         ( key,
           Obs.Json.Obj
             (List.map
                (fun (backend_name, point) ->
                  ( backend_name,
                    Obs.Json.Obj
                      [
                        ("pkts_per_s", Obs.Json.Float point.pkts_per_s);
                        ( "minor_words_per_pkt",
                          Obs.Json.Float point.words_per_pkt );
                      ] ))
                rows
             @ List.map
                 (fun (name, r) -> (name, Obs.Json.Float r))
                 (perf_ratios rows)) ))
       results)

let perf_json results =
  Obs.Json.Obj
    [
      ("format", Obs.Json.String "planp-bench-perf/1");
      ("smoke", Obs.Json.Bool !smoke);
      ("asps", perf_asps_json results);
    ]

(* The baseline gate.  Two families of checks, chosen to stay meaningful on
   any machine:
     - allocs/packet against the committed baseline (deterministic counts;
       tolerance covers GC accounting jitter, not real regressions), and
     - same-run backend ratios (jit vs interp packets/sec), which divide
       out the host's absolute speed.  *)
let perf_check_against ~baseline_path results =
  let fail = ref [] in
  let complain fmt = Printf.ksprintf (fun m -> fail := m :: !fail) fmt in
  (match
     let contents =
       let ic = open_in_bin baseline_path in
       let n = in_channel_length ic in
       let s = really_input_string ic n in
       close_in ic;
       s
     in
     Obs.Json.of_string contents
   with
  | exception Sys_error message -> complain "cannot read baseline: %s" message
  | Error message -> complain "cannot parse baseline %s: %s" baseline_path message
  | Ok baseline -> (
      match Obs.Json.member "asps" baseline with
      | None -> complain "baseline %s has no \"asps\" section" baseline_path
      | Some asps ->
          List.iter
            (fun (key, rows) ->
              match Obs.Json.member key asps with
              | None -> complain "baseline has no entry for %s" key
              | Some entry ->
                  List.iter
                    (fun (backend_name, point) ->
                      match
                        Option.bind
                          (Obs.Json.member backend_name entry)
                          (fun b ->
                            Option.bind
                              (Obs.Json.member "minor_words_per_pkt" b)
                              Obs.Json.number)
                      with
                      | None ->
                          complain "baseline has no words/pkt for %s/%s" key
                            backend_name
                      | Some base_words ->
                          (* +-25%% relative plus a small absolute slack so
                             near-zero baselines don't trip on a word or
                             two of GC noise. *)
                          let ceiling = (base_words *. 1.25) +. 16.0 in
                          if point.words_per_pkt > ceiling then
                            complain
                              "%s/%s allocates %.1f words/pkt (baseline %.1f, ceiling %.1f)"
                              key backend_name point.words_per_pkt base_words
                              ceiling)
                    rows)
            results));
  (* The paper's speedup claim, checked within this run. *)
  (match List.assoc_opt "audio_router" results with
  | None -> complain "no audio_router section in this run"
  | Some rows -> (
      match (List.assoc_opt "jit" rows, List.assoc_opt "interp" rows) with
      | Some jit, Some interp ->
          if jit.pkts_per_s < 2.0 *. interp.pkts_per_s then
            complain
              "audio_router: jit %.0f pkts/s is under 2x interp %.0f pkts/s"
              jit.pkts_per_s interp.pkts_per_s
      | _ -> complain "audio_router run lacks jit or interp rows"));
  match !fail with
  | [] -> Printf.printf "\nperf gate: OK (baseline %s)\n" baseline_path
  | messages ->
      Printf.printf "\nperf gate: FAILED\n";
      List.iter (fun m -> Printf.printf "  - %s\n" m) (List.rev messages);
      exit 1

let perf () =
  section "perf -- packet fast path (packets/sec, minor words/packet)";
  let results = perf_run () in
  Printf.printf "%-14s %-10s %14s %18s\n" "asp" "backend" "pkts/s"
    "minor words/pkt";
  List.iter
    (fun (key, rows) ->
      List.iter
        (fun (backend_name, point) ->
          Printf.printf "%-14s %-10s %14.0f %18.1f\n" key backend_name
            point.pkts_per_s point.words_per_pkt)
        rows)
    results;
  List.iter
    (fun (key, rows) ->
      List.iter
        (fun (name, r) ->
          match name with
          | "jit_speedup_over_interp" ->
              Printf.printf "%-14s jit is %.1fx interp\n" key r
          | _ -> Printf.printf "%-14s jit takes %.2fx native time\n" key r)
        (perf_ratios rows))
    results;
  record "perf" (perf_json results);
  baseline_add "asps" (perf_asps_json results);
  match !perf_check with
  | None -> ()
  | Some baseline_path -> perf_check_against ~baseline_path results

(* ------------------------------------------------------------------ *)
(* scale -- the event core at topology scale                           *)
(* ------------------------------------------------------------------ *)

type scale_point = {
  sp_events : int;
  sp_events_per_s : float;
  sp_pkts_per_s : float;
  sp_words_per_event : float;
  sp_walks_per_event : float;
  sp_overflows_per_event : float;
}

(* Advance the simulation to [warmup_stop] (pools, rings and the calendar
   wheel reach steady-state size), then measure events/sec, packets/sec,
   minor words/event and the event queue's work per event (entries walked
   past by sorted inserts, inserts sent to the overflow heap) over the
   segment up to [stop]. *)
let scale_measure ~warmup_stop ~stop ~sim ~events ~pkts ~engine =
  sim warmup_stop;
  let e0 = events () in
  let p0 = pkts () in
  let q0 = Netsim.Engine.queue_walk_steps engine in
  let o0 = Netsim.Engine.queue_overflow_inserts engine in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  sim stop;
  let dt = Unix.gettimeofday () -. t0 in
  let de = events () - e0 in
  let dp = pkts () - p0 in
  let dw = Gc.minor_words () -. w0 in
  let per_event n = float_of_int n /. float_of_int (max de 1) in
  {
    sp_events = de;
    sp_events_per_s = float_of_int de /. dt;
    sp_pkts_per_s = float_of_int dp /. dt;
    sp_words_per_event = dw /. float_of_int (max de 1);
    sp_walks_per_event = per_event (Netsim.Engine.queue_walk_steps engine - q0);
    sp_overflows_per_event =
      per_event (Netsim.Engine.queue_overflow_inserts engine - o0);
  }

(* N raw links, each ping-ponging one preallocated packet between its
   endpoints forever: every event is one link delivery, so this isolates
   the scheduler + link fast path at N concurrent flows.  Steady state
   must allocate (essentially) zero minor words per event — the headline
   claim the baseline gate protects. *)
let scale_flows ~flows =
  let engine = Netsim.Engine.create () in
  let payload = Netsim.Payload.of_string (String.make 100 'x') in
  let pkt =
    Netsim.Packet.udp
      ~src:(Netsim.Addr.of_string "10.9.0.1")
      ~dst:(Netsim.Addr.of_string "10.9.0.2")
      ~src_port:9000 ~dst_port:9001 payload
  in
  let sent = ref 0 in
  for i = 1 to flows do
    let link =
      Netsim.Link.create engine
        ~name:(Printf.sprintf "flow%d" i)
        ~bandwidth_bps:10_000_000.0 ~latency:0.001 ()
    in
    let bounce from p =
      incr sent;
      ignore (Netsim.Link.send link ~from p)
    in
    Netsim.Link.set_receiver link Netsim.Link.B (bounce Netsim.Link.B);
    Netsim.Link.set_receiver link Netsim.Link.A (bounce Netsim.Link.A);
    (* Stagger the first transmissions so the flows are not phase-locked. *)
    Netsim.Engine.schedule engine
      ~at:(float_of_int i *. 1e-6)
      (fun () -> bounce Netsim.Link.A pkt)
  done;
  (* One bounce = 128 wire bytes at 10 Mb/s + 1 ms propagation. *)
  let hop = (128.0 *. 8.0 /. 10_000_000.0) +. 0.001 in
  let events_per_sim_s = float_of_int flows /. hop in
  let warm = if !smoke then 5_000 else 100_000 in
  let target =
    if !smoke then 30_000 else if !full then 10_000_000 else 1_500_000
  in
  (* Warm up for at least 1.25 simulated seconds: the per-direction
     Flowstat rings keep doubling until they hold one full window (1 s)
     of samples, and that growth must not leak into the measurement. *)
  let warmup_stop =
    Float.max (float_of_int warm /. events_per_sim_s) 1.25
  in
  let stop = warmup_stop +. (float_of_int target /. events_per_sim_s) in
  scale_measure ~warmup_stop ~stop ~engine
    ~sim:(fun stop -> Netsim.Engine.run_until engine ~stop)
    ~events:(fun () -> Netsim.Engine.events_processed engine)
    ~pkts:(fun () -> !sent)

(* A fan-out tree — one root host, 4 routers, 8 hosts per router — with a
   periodic sender addressing every leaf each tick.  Packets cross two
   links and one routing hop, so this exercises the full Topology/Node
   pipeline.  Packets are pooled like the mesh flows (one preallocated
   packet per leaf, re-originated every tick); the forwarding hop costs
   one small TTL-copy record per packet. *)
let scale_fanout () =
  let branches = 4 and leaves_per = 8 in
  let topo = Netsim.Topology.create () in
  let engine = Netsim.Topology.engine topo in
  let root = Netsim.Topology.add_host topo "root" "10.8.0.1" in
  let leaves = ref [] in
  for b = 1 to branches do
    let router =
      Netsim.Topology.add_host topo
        (Printf.sprintf "r%d" b)
        (Printf.sprintf "10.8.%d.254" b)
    in
    ignore (Netsim.Topology.connect topo root router);
    for l = 1 to leaves_per do
      let leaf =
        Netsim.Topology.add_host topo
          (Printf.sprintf "leaf%d_%d" b l)
          (Printf.sprintf "10.8.%d.%d" b l)
      in
      ignore (Netsim.Topology.connect topo router leaf);
      leaves := leaf :: !leaves
    done
  done;
  Netsim.Topology.compute_routes topo;
  let leaves = List.rev !leaves in
  let payload = Netsim.Payload.of_string (String.make 100 'y') in
  (* Packet pool: packets are immutable values, so one per leaf can be
     re-originated every tick without allocation. *)
  let pool =
    Array.of_list
      (List.map
         (fun leaf ->
           Netsim.Packet.udp ~src:(Netsim.Node.addr root)
             ~dst:(Netsim.Node.addr leaf) ~src_port:7000 ~dst_port:7001
             payload)
         leaves)
  in
  let sent = ref 0 in
  let period = 0.01 in
  let ticks = if !smoke then 320 else 3_000 in
  let until = float_of_int (ticks + 1) *. period in
  let rec tick () =
    Array.iter
      (fun pkt ->
        incr sent;
        Netsim.Node.originate root pkt)
      pool;
    if Netsim.Engine.now engine +. period < until then
      Netsim.Engine.schedule_after engine ~delay:period tick
  in
  Netsim.Engine.schedule_after engine ~delay:period tick;
  (* At least 1.5 simulated seconds of warmup — same Flowstat-ring
     reasoning as the flows workloads. *)
  let warmup_stop =
    Float.max (float_of_int (ticks / 10) *. period) 1.5
  in
  scale_measure ~warmup_stop ~stop:until ~engine
    ~sim:(fun stop -> Netsim.Topology.run_until topo ~stop)
    ~events:(fun () -> Netsim.Engine.events_processed engine)
    ~pkts:(fun () -> !sent)

let scale_json results =
  Obs.Json.Obj
    (List.map
       (fun (key, p) ->
         ( key,
           Obs.Json.Obj
             [
               ("events", Obs.Json.Int p.sp_events);
               ("events_per_s", Obs.Json.Float p.sp_events_per_s);
               ("pkts_per_s", Obs.Json.Float p.sp_pkts_per_s);
               ("minor_words_per_event", Obs.Json.Float p.sp_words_per_event);
               ("walk_steps_per_event", Obs.Json.Float p.sp_walks_per_event);
               ( "overflow_inserts_per_event",
                 Obs.Json.Float p.sp_overflows_per_event );
             ] ))
       results)

(* Gate minor words/event and the event queue's work per event: all three
   are deterministic, while events/sec measures the host machine and would
   make the gate flaky. *)
let scale_check_against ~baseline_path results =
  let fail = ref [] in
  let complain fmt = Printf.ksprintf (fun m -> fail := m :: !fail) fmt in
  (match
     let contents =
       let ic = open_in_bin baseline_path in
       let n = in_channel_length ic in
       let s = really_input_string ic n in
       close_in ic;
       s
     in
     Obs.Json.of_string contents
   with
  | exception Sys_error message -> complain "cannot read baseline: %s" message
  | Error message ->
      complain "cannot parse baseline %s: %s" baseline_path message
  | Ok baseline -> (
      match Obs.Json.member "scale" baseline with
      | None -> complain "baseline %s has no \"scale\" section" baseline_path
      | Some entries ->
          List.iter
            (fun (key, point) ->
              let base field =
                Option.bind (Obs.Json.member key entries) (fun e ->
                    Option.bind (Obs.Json.member field e) Obs.Json.number)
              in
              (match base "minor_words_per_event" with
              | None -> complain "baseline has no words/event for scale/%s" key
              | Some base_words ->
                  (* +-25% relative plus two words of absolute slack: the
                     link workloads sit at ~0 words/event, so this gate is
                     effectively "stays allocation-free". *)
                  let ceiling = (base_words *. 1.25) +. 2.0 in
                  if point.sp_words_per_event > ceiling then
                    complain
                      "scale/%s allocates %.3f words/event (baseline %.3f, ceiling %.3f)"
                      key point.sp_words_per_event base_words ceiling);
              (* The queue counts repeat exactly run to run; +25% plus
                 0.05 per event of slack catches a scheduler that starts
                 walking its buckets or overflowing its wheel. *)
              List.iter
                (fun (field, what, value) ->
                  match base field with
                  | None -> complain "baseline has no %s for scale/%s" field key
                  | Some base ->
                      let ceiling = (base *. 1.25) +. 0.05 in
                      if value > ceiling then
                        complain
                          "scale/%s makes %.3f %s per event (baseline %.3f, ceiling %.3f)"
                          key value what base ceiling)
                [
                  ("walk_steps_per_event", "walk steps", point.sp_walks_per_event);
                  ( "overflow_inserts_per_event",
                    "overflow inserts",
                    point.sp_overflows_per_event );
                ])
            results));
  match !fail with
  | [] -> Printf.printf "\nscale gate: OK (baseline %s)\n" baseline_path
  | messages ->
      Printf.printf "\nscale gate: FAILED\n";
      List.iter (fun m -> Printf.printf "  - %s\n" m) (List.rev messages);
      exit 1

let scale () =
  section "scale -- event core at topology scale";
  let results =
    List.map
      (fun n -> (Printf.sprintf "flows_%d" n, scale_flows ~flows:n))
      [ 10; 100; 1000 ]
    @ [ ("fanout_tree", scale_fanout ()) ]
  in
  Printf.printf "%-14s %10s %14s %14s %18s %12s %16s\n" "workload" "events"
    "events/s" "pkts/s" "minor words/event" "walks/event" "overflows/event";
  List.iter
    (fun (key, p) ->
      Printf.printf "%-14s %10d %14.0f %14.0f %18.3f %12.4f %16.4f\n" key
        p.sp_events p.sp_events_per_s p.sp_pkts_per_s p.sp_words_per_event
        p.sp_walks_per_event p.sp_overflows_per_event)
    results;
  record "scale" (Obs.Json.Obj [ ("workloads", scale_json results) ]);
  baseline_add "scale" (scale_json results);
  match !perf_check with
  | None -> ()
  | Some baseline_path -> scale_check_against ~baseline_path results

(* ------------------------------------------------------------------ *)
(* par -- the partitioned parallel driver vs the sequential engine     *)
(* ------------------------------------------------------------------ *)

type par_point = { pp_events : int; pp_events_per_s : float }

(* Wall-clock events/sec over the post-warmup segment.  No allocation
   column here: [Gc.minor_words] is per-domain under OCaml 5, so the
   number would only describe the coordinating domain. *)
let par_measure ~warmup_stop ~stop ~sim ~events =
  sim warmup_stop;
  let e0 = events () in
  let t0 = Unix.gettimeofday () in
  sim stop;
  let dt = Unix.gettimeofday () -. t0 in
  let de = events () - e0 in
  { pp_events = de; pp_events_per_s = float_of_int de /. dt }

let par_events par () =
  Array.fold_left
    (fun acc e -> acc + Netsim.Engine.events_processed e)
    0
    (Netsim.Par_engine.engines par)

(* The flow mesh of [scale_flows], round-robined across the raw engines
   of a [Par_engine.create] driver.  The flows are independent — no cut,
   so the conservative windows are free-running and this measures the
   driver's best-case parallel speedup over the identical sequential
   workload ([~domains:1] delegates straight to [Engine.run_until]). *)
let par_flows ~flows ~domains =
  let par = Netsim.Par_engine.create ~domains in
  let engines = Netsim.Par_engine.engines par in
  let payload = Netsim.Payload.of_string (String.make 100 'x') in
  let pkt =
    Netsim.Packet.udp
      ~src:(Netsim.Addr.of_string "10.9.0.1")
      ~dst:(Netsim.Addr.of_string "10.9.0.2")
      ~src_port:9000 ~dst_port:9001 payload
  in
  for i = 1 to flows do
    let engine = engines.((i - 1) mod domains) in
    let link =
      Netsim.Link.create engine
        ~name:(Printf.sprintf "parflow%d" i)
        ~bandwidth_bps:10_000_000.0 ~latency:0.001 ()
    in
    let bounce from p = ignore (Netsim.Link.send link ~from p) in
    Netsim.Link.set_receiver link Netsim.Link.B (bounce Netsim.Link.B);
    Netsim.Link.set_receiver link Netsim.Link.A (bounce Netsim.Link.A);
    Netsim.Engine.schedule engine
      ~at:(float_of_int i *. 1e-6)
      (fun () -> bounce Netsim.Link.A pkt)
  done;
  let hop = (128.0 *. 8.0 /. 10_000_000.0) +. 0.001 in
  let events_per_sim_s = float_of_int flows /. hop in
  let warm = if !smoke then 5_000 else 100_000 in
  let target = if !smoke then 30_000 else 1_500_000 in
  let warmup_stop = Float.max (float_of_int warm /. events_per_sim_s) 1.25 in
  let stop = warmup_stop +. (float_of_int target /. events_per_sim_s) in
  par_measure ~warmup_stop ~stop
    ~sim:(fun stop -> Netsim.Par_engine.run_until par ~stop)
    ~events:(par_events par)

(* Four islands (router + 8 hosts each, handler-driven UDP ping-pong)
   bridged router-to-router in a chain.  The bridges are the only cut, so
   [Partition.plan] keeps islands whole, lookahead = the bridge latency,
   and one ping-pong flow per bridge keeps packets crossing the
   conduits.  Unlike [par_flows] this pays the real window cost: one
   synchronization round per 5 ms of simulated time. *)
let par_cut ~domains =
  let islands = 4 and hosts_per = 8 in
  let topo = Netsim.Topology.create () in
  let routers = ref [] and hosts = ref [] in
  for i = 1 to islands do
    let router =
      Netsim.Topology.add_host topo
        (Printf.sprintf "pr%d" i)
        (Printf.sprintf "10.11.%d.254" i)
    in
    for h = 1 to hosts_per do
      let host =
        Netsim.Topology.add_host topo
          (Printf.sprintf "ph%d_%d" i h)
          (Printf.sprintf "10.11.%d.%d" i h)
      in
      ignore
        (Netsim.Topology.connect topo router host ~latency:0.0005
           ~bandwidth_bps:100_000_000.0);
      hosts := (host, router) :: !hosts
    done;
    (match !routers with
    | prev :: _ ->
        ignore
          (Netsim.Topology.connect topo prev router ~latency:0.005
             ~bandwidth_bps:100_000_000.0)
    | [] -> ());
    routers := router :: !routers
  done;
  Netsim.Topology.compute_routes topo;
  let par =
    match Netsim.Par_engine.of_topology topo ~domains with
    | Ok par -> par
    | Error message -> failwith ("par_cut: " ^ message)
  in
  (* Handlers and injection come after the shard (the driver requires an
     empty schedule at shard time). *)
  let payload = Netsim.Payload.of_string (String.make 64 'z') in
  let bounce peer_port node packet =
    Netsim.Node.send_udp node ~dst:packet.Netsim.Packet.src
      ~src_port:peer_port
      ~dst_port:
        (match packet.Netsim.Packet.l4 with
        | Netsim.Packet.Udp h -> h.Netsim.Packet.udp_src
        | _ -> peer_port)
      payload
  in
  List.iter
    (fun (host, router) ->
      Netsim.Node.on_udp host ~port:8001 (bounce 8001);
      Netsim.Node.on_udp router ~port:8000 (bounce 8000);
      Netsim.Node.send_udp host
        ~dst:(Netsim.Node.addr router)
        ~src_port:8001 ~dst_port:8000 payload)
    !hosts;
  let rec seed_bridges = function
    | a :: (b :: _ as rest) ->
        Netsim.Node.on_udp a ~port:9100 (bounce 9100);
        Netsim.Node.on_udp b ~port:9100 (bounce 9100);
        Netsim.Node.send_udp a
          ~dst:(Netsim.Node.addr b)
          ~src_port:9100 ~dst_port:9100 payload;
        seed_bridges rest
    | _ -> ()
  in
  seed_bridges !routers;
  let warmup_stop = 0.5 in
  let stop = warmup_stop +. if !smoke then 1.0 else 5.0 in
  par_measure ~warmup_stop ~stop
    ~sim:(fun stop -> Netsim.Par_engine.run_until par ~stop)
    ~events:(par_events par)

let par_ratio p seq = p.pp_events_per_s /. seq.pp_events_per_s

let par_json ~cores rows =
  Obs.Json.Obj
    (("cores", Obs.Json.Int cores)
    :: List.map
         (fun (key, p, ratio) ->
           let fields =
             [
               ("events", Obs.Json.Int p.pp_events);
               ("events_per_s", Obs.Json.Float p.pp_events_per_s);
             ]
           in
           let fields =
             match ratio with
             | Some r -> fields @ [ ("ratio_vs_seq", Obs.Json.Float r) ]
             | None -> fields
           in
           (key, Obs.Json.Obj fields))
         rows)

(* The gate is a SAME-RUN ratio (like the jit >= interp gates): 4 domains
   must process the uncut flow mesh at >= 2x the single-domain rate
   measured moments earlier on the same machine.  Absolute events/s are
   never gated.  On hosts without at least 4 cores the 2x bound is
   physically unreachable, so the gate reports itself skipped instead of
   failing the build. *)
let par_check ~cores ~seq ~par4 =
  if cores < 4 then
    Printf.printf
      "\npar gate: SKIPPED (host has %d core(s); the >=2x par4 gate needs 4)\n"
      cores
  else begin
    let ratio = par_ratio par4 seq in
    if ratio >= 2.0 then
      Printf.printf "\npar gate: OK (par4/seq = %.2fx >= 2.00x)\n" ratio
    else begin
      Printf.printf
        "\npar gate: FAILED\n  - par4 runs the flow mesh at %.2fx the \
         same-run sequential rate (need >= 2.00x)\n"
        ratio;
      exit 1
    end
  end

let par () =
  section "par -- partitioned parallel driver vs the sequential engine";
  let cores = Domain.recommended_domain_count () in
  let flows = 1000 in
  let seq = par_flows ~flows ~domains:1 in
  let par2 = par_flows ~flows ~domains:2 in
  let par4 = par_flows ~flows ~domains:4 in
  let cut_seq = par_cut ~domains:1 in
  let cut4 = par_cut ~domains:4 in
  let rows =
    [
      ("flows_seq", seq, None);
      ("flows_par2", par2, Some (par_ratio par2 seq));
      ("flows_par4", par4, Some (par_ratio par4 seq));
      ("cut_seq", cut_seq, None);
      ("cut_par4", cut4, Some (par_ratio cut4 cut_seq));
    ]
  in
  Printf.printf "host cores: %d\n" cores;
  Printf.printf "%-12s %10s %14s %10s\n" "workload" "events" "events/s"
    "vs seq";
  List.iter
    (fun (key, p, ratio) ->
      Printf.printf "%-12s %10d %14.0f %10s\n" key p.pp_events
        p.pp_events_per_s
        (match ratio with
        | Some r -> Printf.sprintf "%.2fx" r
        | None -> "-"))
    rows;
  let json = par_json ~cores rows in
  record "par" json;
  baseline_add "par" json;
  match !perf_check with
  | None -> ()
  | Some _ -> par_check ~cores ~seq ~par4

(* ------------------------------------------------------------------ *)
(* faults -- the experiments under the network-dynamics fault matrix   *)
(* ------------------------------------------------------------------ *)

(* Four scenarios (baseline / lossy / flappy / churn) against the three
   deployed-ASP experiments, each with a Netsim.Faults scenario armed on
   its topology.  The simulation and the fault plane draw from seeded
   RNGs, so every count below is deterministic: the committed baseline
   gates them like the allocation counts above, and the shape checks
   assert the adaptation the paper's applications are supposed to show --
   degrade instead of collapse, recover once the fault clears.  The
   section ignores --smoke: the runs are already short, and the counts
   must match the one committed baseline either way. *)

let fevent ?until ?target ~at kind =
  {
    Netsim.Faults.ft_at = at;
    ft_until = until;
    ft_kind = kind;
    ft_target = target;
  }

type fault_cell = {
  fc_counts : (string * int) list;  (* gated against the baseline *)
  fc_shape : string list;  (* failed shape assertions; [] when healthy *)
}

let shape_check checks =
  List.filter_map
    (fun (ok, message) -> if ok then None else Some message)
    checks

(* Audio (quick Fig. 6, 50 s).  Lossy drops and corrupts frames on the
   backbone; flappy cuts it twice; churn crashes the router (keeping its
   ASP state) through the heavy-load phase. *)
let faults_audio scenario_name =
  let open Netsim.Faults in
  let scenario =
    match scenario_name with
    | "lossy" ->
        scenario_of_events ~seed:7
          [
            fevent ~at:2.0 ~until:45.0 ~target:(Tlink "backbone") (Loss 0.03);
            fevent ~at:2.0 ~until:45.0 ~target:(Tlink "backbone")
              (Corrupt 0.01);
          ]
    | "flappy" ->
        scenario_of_events ~seed:7
          [
            fevent ~at:12.0 ~until:14.0 ~target:(Tlink "backbone") Link_down;
            fevent ~at:26.0 ~until:28.0 ~target:(Tlink "backbone") Link_down;
          ]
    | "churn" ->
        scenario_of_events ~seed:7
          [
            fevent ~at:15.0 ~until:18.0 ~target:(Tnode "router")
              (Crash { wipe = false });
          ]
    | _ -> empty
  in
  let result =
    Asp.Audio_experiment.run
      (Asp.Audio_experiment.quick_config ~faults:scenario ())
  in
  let _, m16, m8 = result.Asp.Audio_experiment.wire_quality_counts in
  let sent = result.Asp.Audio_experiment.frames_sent in
  let received = result.Asp.Audio_experiment.frames_received in
  let wire_after t0 =
    List.exists
      (fun (t, rate) -> t >= t0 && rate > 0.0)
      result.Asp.Audio_experiment.series
  in
  let shape =
    shape_check
      ([
         ( received > 0,
           Printf.sprintf "audio/%s: no frames delivered" scenario_name );
         ( m16 + m8 > 0,
           Printf.sprintf
             "audio/%s: no distilled (mono) frames on the wire -- the ASP \
              did not degrade under load"
             scenario_name );
       ]
      @
      match scenario_name with
      | "lossy" ->
          [
            ( received * 10 >= sent * 3,
              "audio/lossy: collapsed -- under 30% of frames delivered" );
          ]
      | "flappy" ->
          [
            (received < sent, "audio/flappy: the flaps lost no frames");
            ( wire_after 30.0,
              "audio/flappy: no audio on the wire after the flaps" );
          ]
      | "churn" ->
          [
            (received < sent, "audio/churn: the router crash lost no frames");
            ( wire_after 20.0,
              "audio/churn: no audio on the wire after the restart" );
          ]
      | _ -> [])
  in
  {
    fc_counts =
      [
        ("frames_sent", sent);
        ("frames_received", received);
        ("mono_frames", m16 + m8);
        ("silent_periods", result.Asp.Audio_experiment.silent_periods);
      ];
    fc_shape = shape;
  }

(* MPEG (120-frame movie, clients at 0.5/3/6 s).  Churn crashes the router
   across client 1's stream; client 3 starts after the restart, so its
   frames prove the server re-fans-out through the recovered router. *)
let faults_mpeg scenario_name =
  let open Netsim.Faults in
  let scenario =
    match scenario_name with
    | "lossy" ->
        scenario_of_events ~seed:13
          [
            fevent ~at:1.0 ~until:10.0 ~target:(Tsegment "client-segment")
              (Loss 0.05);
          ]
    | "flappy" ->
        scenario_of_events ~seed:13
          [ fevent ~at:2.0 ~until:2.6 ~target:(Tlink "backbone") Link_down ]
    | "churn" ->
        scenario_of_events ~seed:13
          [
            fevent ~at:1.5 ~until:2.5 ~target:(Tnode "router")
              (Crash { wipe = false });
          ]
    | _ -> empty
  in
  let config =
    {
      (Asp.Mpeg_experiment.default_config ~faults:scenario ()) with
      Asp.Mpeg_experiment.movie_frames = 120;
      duration = 16.0;
    }
  in
  let result = Asp.Mpeg_experiment.run config in
  let frames = result.Asp.Mpeg_experiment.client_frames in
  let min_frames = List.fold_left min max_int frames in
  let total_frames = List.fold_left ( + ) 0 frames in
  let last_frames = match List.rev frames with f :: _ -> f | [] -> 0 in
  let streams = result.Asp.Mpeg_experiment.server_streams in
  let shape =
    shape_check
      ([
         ( min_frames > 0,
           Printf.sprintf "mpeg/%s: a client played no frames" scenario_name );
       ]
      @
      match scenario_name with
      | "flappy" | "churn" ->
          [
            ( last_frames > 0,
              Printf.sprintf
                "mpeg/%s: the client that started after the recovery got \
                 no frames -- the server did not re-fan-out"
                scenario_name );
            ( streams >= 2,
              Printf.sprintf
                "mpeg/%s: the server never opened a fresh stream after the \
                 fault"
                scenario_name );
          ]
      | _ -> [])
  in
  {
    fc_counts =
      [
        ("server_streams", streams);
        ("server_frames_sent", result.Asp.Mpeg_experiment.server_frames_sent);
        ("client_frames_total", total_frames);
        ("client_frames_min", min_frames);
      ];
    fc_shape = shape;
  }

(* HTTP (ASP gateway, 4 client machines, 8 workers, 8 s).  Churn crashes
   one of the two physical servers mid-run; the clients' bounded retry
   plus the surviving server keep replies flowing, and the restarted
   server picks requests back up. *)
let faults_http scenario_name =
  let open Netsim.Faults in
  let scenario =
    match scenario_name with
    | "lossy" ->
        scenario_of_events ~seed:23
          [ fevent ~at:1.0 ~until:6.0 ~target:(Tsegment "cluster") (Loss 0.03) ]
    | "flappy" ->
        scenario_of_events ~seed:23
          [ fevent ~at:3.0 ~until:4.0 ~target:(Tlink "access0") Link_down ]
    | "churn" ->
        scenario_of_events ~seed:23
          [
            fevent ~at:2.5 ~until:5.0 ~target:(Tnode "server1")
              (Crash { wipe = false });
          ]
    | _ -> empty
  in
  let config =
    {
      Asp.Http_experiment.default_config with
      Asp.Http_experiment.duration = 8.0;
      warmup = 2.0;
      client_count = 4;
      trace_requests = 4_000;
      faults = Some scenario;
    }
  in
  let point =
    Asp.Http_experiment.run_point config
      (Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit)
      ~workers:8
  in
  let replies =
    int_of_float
      ((point.Asp.Http_experiment.replies_per_s
       *. (config.Asp.Http_experiment.duration
          -. config.Asp.Http_experiment.warmup))
      +. 0.5)
  in
  let load0, load1 = point.Asp.Http_experiment.server_loads in
  let shape =
    shape_check
      ([
         ( replies > 0,
           Printf.sprintf "http/%s: no replies completed" scenario_name );
         ( point.Asp.Http_experiment.gateway_requests > 0,
           Printf.sprintf "http/%s: the ASP gateway routed no requests"
             scenario_name );
       ]
      @
      match scenario_name with
      | "churn" ->
          [
            ( load0 > 0,
              "http/churn: the surviving server served no requests" );
            ( load1 > 0,
              "http/churn: the crashed server never served -- no recovery \
               after restart" );
          ]
      | _ -> [])
  in
  {
    fc_counts =
      [
        ("replies", replies);
        ("gateway_requests", point.Asp.Http_experiment.gateway_requests);
        ("server0_requests", load0);
        ("server1_requests", load1);
      ];
    fc_shape = shape;
  }

(* The gate: every deterministic count within +-25% (plus a few counts of
   absolute slack for the small ones) of the committed baseline, both
   directions -- a fault cell drifting in either direction is a behaviour
   change -- plus every shape assertion. Shared by the [faults] and
   [adapt] sections; [section] names the baseline document member. *)
let cells_check_against ~section ~baseline_path ~shape_failures cells =
  let fail = ref (List.rev shape_failures) in
  let complain fmt = Printf.ksprintf (fun m -> fail := m :: !fail) fmt in
  (match
     let contents =
       let ic = open_in_bin baseline_path in
       let n = in_channel_length ic in
       let s = really_input_string ic n in
       close_in ic;
       s
     in
     Obs.Json.of_string contents
   with
  | exception Sys_error message -> complain "cannot read baseline: %s" message
  | Error message ->
      complain "cannot parse baseline %s: %s" baseline_path message
  | Ok baseline -> (
      match Obs.Json.member section baseline with
      | None ->
          complain "baseline %s has no %S section" baseline_path section
      | Some entries ->
          List.iter
            (fun (key, cell) ->
              match Obs.Json.member key entries with
              | None -> complain "baseline has no %s cell %s" section key
              | Some entry ->
                  List.iter
                    (fun (count_name, value) ->
                      match
                        Option.bind
                          (Obs.Json.member count_name entry)
                          Obs.Json.number
                      with
                      | None ->
                          complain "baseline %s/%s has no %s" section key
                            count_name
                      | Some base ->
                          let v = float_of_int value in
                          let lo = (base *. 0.75) -. 8.0
                          and hi = (base *. 1.25) +. 8.0 in
                          if v < lo || v > hi then
                            complain
                              "%s/%s: %s=%d is outside [%.0f, %.0f] \
                               (baseline %.0f)"
                              section key count_name value lo hi base)
                    cell.fc_counts)
            cells));
  match List.rev !fail with
  | [] ->
      Printf.printf "\n%s gate: OK (baseline %s)\n" section baseline_path
  | messages ->
      Printf.printf "\n%s gate: FAILED\n" section;
      List.iter (fun m -> Printf.printf "  - %s\n" m) messages;
      exit 1

let faults () =
  section "faults -- experiments under the network-dynamics fault matrix";
  let cells =
    List.concat_map
      (fun name ->
        [
          ("audio_" ^ name, faults_audio name);
          ("mpeg_" ^ name, faults_mpeg name);
          ("http_" ^ name, faults_http name);
        ])
      [ "baseline"; "lossy"; "flappy"; "churn" ]
  in
  Printf.printf "%-16s %s\n" "cell" "counts";
  List.iter
    (fun (key, cell) ->
      Printf.printf "%-16s %s\n" key
        (String.concat "  "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              cell.fc_counts)))
    cells;
  let shape_failures = List.concat_map (fun (_, cell) -> cell.fc_shape) cells in
  (match shape_failures with
  | [] ->
      Printf.printf "\nadaptation shape: OK (%d cells)\n" (List.length cells)
  | messages ->
      Printf.printf "\nadaptation shape: FAILED\n";
      List.iter (fun m -> Printf.printf "  - %s\n" m) messages);
  let cells_json =
    Obs.Json.Obj
      (List.map
         (fun (key, cell) ->
           ( key,
             Obs.Json.Obj
               (List.map
                  (fun (k, v) -> (k, Obs.Json.Int v))
                  cell.fc_counts) ))
         cells)
  in
  record "faults"
    (Obs.Json.Obj
       [
         ("cells", cells_json);
         ( "shape_failures",
           Obs.Json.List
             (List.map (fun m -> Obs.Json.String m) shape_failures) );
       ]);
  baseline_add "faults" cells_json;
  match !perf_check with
  | None -> if shape_failures <> [] then exit 1
  | Some baseline_path ->
      cells_check_against ~section:"faults" ~baseline_path ~shape_failures
        cells

(* ------------------------------------------------------------------ *)
(* adapt -- the closed loop vs the static ASPs under the fault matrix  *)
(* ------------------------------------------------------------------ *)

(* The paper's core quantitative story: the same seeded fault scenario
   run twice, once with the static ASP and once with the adaptation
   plane armed ([Adapt.Plane] hot-swapping variants through in-band
   deploy epochs). Goodput is each experiment's own currency -- audio
   frames delivered, decodable MPEG I+P frames, HTTP replies completed.
   Everything is deterministic, so the counts are gated like the faults
   matrix, and the shape assertions pin the headline: adaptive beats
   static in every fault cell, and is an exact tie with zero swaps when
   the network is healthy (monitors cost nothing, rules stay quiet).
   Like [faults], this section ignores --smoke. The registry is reset
   around each run the way the tier-1 adaptation tests do, so the
   monitors of consecutive runs never see each other's counters. *)

let adapt_cell ~name ~healthy ~static ~adaptive ~stats =
  let swaps, failed, rollbacks =
    match stats with
    | Some stats ->
        ( stats.Extnet.Adapt.Plane.st_swaps,
          stats.Extnet.Adapt.Plane.st_failed_swaps,
          stats.Extnet.Adapt.Plane.st_rollbacks )
    | None -> (0, 0, 0)
  in
  let shape =
    shape_check
      ([
         ( stats <> None,
           Printf.sprintf "adapt/%s: armed run reported no plane stats" name );
         ( failed = 0,
           Printf.sprintf "adapt/%s: %d failed swap(s)" name failed );
         ( rollbacks = 0,
           Printf.sprintf "adapt/%s: %d guard rollback(s)" name rollbacks );
       ]
      @
      if healthy then
        [
          ( adaptive = static,
            Printf.sprintf
              "adapt/%s: the armed-but-idle plane changed goodput (%d vs \
               %d static)"
              name adaptive static );
          ( swaps = 0,
            Printf.sprintf "adapt/%s: swapped on a healthy network" name );
        ]
      else
        [
          ( adaptive > static,
            Printf.sprintf
              "adapt/%s: adaptive did not beat static (%d vs %d)" name
              adaptive static );
          ( swaps >= 1,
            Printf.sprintf "adapt/%s: no swap under the fault" name );
        ])
  in
  {
    fc_counts =
      [
        ("static_goodput", static);
        ("adaptive_goodput", adaptive);
        ("swaps", swaps);
        ("rollbacks", rollbacks);
      ];
    fc_shape = shape;
  }

(* Audio under a capacity fault (or none): the synthetic load schedule is
   off, so the static router policy -- which reads offered load and is
   blind to shrunken capacity -- never degrades, while the closed loop
   watches the drop rate. *)
let adapt_audio ?faults ~name ~healthy () =
  let config adaptation =
    {
      (Asp.Audio_experiment.quick_config ~deploy:Asp.Deploy_mode.In_band
         ?faults ?adaptation ())
      with
      Asp.Audio_experiment.schedule = [ (0.0, 0.0) ];
    }
  in
  Obs.Registry.reset Obs.Registry.default;
  let static = Asp.Audio_experiment.run (config None) in
  Obs.Registry.reset Obs.Registry.default;
  let adaptive =
    Asp.Audio_experiment.run
      (config (Some (Asp.Audio_experiment.adaptive_policy ())))
  in
  adapt_cell ~name ~healthy
    ~static:static.Asp.Audio_experiment.frames_received
    ~adaptive:adaptive.Asp.Audio_experiment.frames_received
    ~stats:adaptive.Asp.Audio_experiment.adaptation

let adapt_baseline () = adapt_audio ~name:"baseline" ~healthy:true ()

let adapt_flappy () =
  let congest =
    Netsim.Faults.scenario_of_events ~seed:7
      [
        fevent ~at:8.0 ~until:30.0
          ~target:(Netsim.Faults.Tsegment "client-segment")
          (Netsim.Faults.Congest { bandwidth_factor = 0.1; queue_factor = 1.0 });
      ]
  in
  adapt_audio ~faults:congest ~name:"flappy" ~healthy:false ()

(* Severe MPEG client-segment congestion: the loop swaps the router
   filter to the authenticated B-frame-shedding variant; goodput is the
   decodable stream, the I- and P-frames that survive. *)
let adapt_lossy () =
  let congest =
    Netsim.Faults.scenario_of_events ~seed:11
      [
        fevent ~at:2.0 ~until:16.0
          ~target:(Netsim.Faults.Tsegment "client-segment")
          (Netsim.Faults.Congest
             { bandwidth_factor = 0.03; queue_factor = 1.0 });
      ]
  in
  let ip_frames result =
    List.fold_left
      (fun acc (i, p, _) -> acc + i + p)
      0 result.Asp.Mpeg_experiment.client_frame_kinds
  in
  Obs.Registry.reset Obs.Registry.default;
  let static =
    Asp.Mpeg_experiment.run
      (Asp.Mpeg_experiment.default_config ~deploy:Asp.Deploy_mode.In_band
         ~faults:congest ())
  in
  Obs.Registry.reset Obs.Registry.default;
  let adaptive =
    Asp.Mpeg_experiment.run
      (Asp.Mpeg_experiment.default_config ~deploy:Asp.Deploy_mode.In_band
         ~faults:congest
         ~adaptation:(Asp.Mpeg_experiment.adaptive_policy ())
         ())
  in
  adapt_cell ~name:"lossy" ~healthy:false ~static:(ip_frames static)
    ~adaptive:(ip_frames adaptive)
    ~stats:adaptive.Asp.Mpeg_experiment.adaptation

(* server1 crashes mid-run: the static Modulo gateway keeps assigning
   connections to the corpse (2 s client retry each); the loop sees the
   retry rate, swaps the failover gateway in and its health prober routes
   everything to the survivor. *)
let adapt_churn () =
  let crash =
    Netsim.Faults.scenario_of_events ~seed:3
      [
        fevent ~at:4.0
          ~target:(Netsim.Faults.Tnode "server1")
          (Netsim.Faults.Crash { wipe = false });
      ]
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
  let replies point =
    int_of_float
      ((point.Asp.Http_experiment.replies_per_s *. (14.0 -. 2.0)) +. 0.5)
  in
  Obs.Registry.reset Obs.Registry.default;
  let static = Asp.Http_experiment.run_point (config None) setup ~workers:8 in
  Obs.Registry.reset Obs.Registry.default;
  let adaptive =
    Asp.Http_experiment.run_point
      (config (Some (Asp.Http_experiment.adaptive_policy ())))
      setup ~workers:8
  in
  adapt_cell ~name:"churn" ~healthy:false ~static:(replies static)
    ~adaptive:(replies adaptive)
    ~stats:adaptive.Asp.Http_experiment.adaptation

(* The multi-node cell: the same server1 crash against a 2-gateway
   fleet, three ways. Static keeps half the connections pointed at the
   corpse; one independent plane per gateway adapts only where its own
   clients' retries trip the rule; the coordinated plane sees the
   fleet-wide retry rate and retunes BOTH gateways through one staged
   rollout. Coordinated must beat both — that margin is what the
   coordination tentpole buys. *)
let adapt_fleet_churn () =
  let crash =
    Netsim.Faults.scenario_of_events ~seed:3
      [
        fevent ~at:4.0
          ~target:(Netsim.Faults.Tnode "server1")
          (Netsim.Faults.Crash { wipe = false });
      ]
  in
  let config coordination adaptation =
    {
      Asp.Http_experiment.default_config with
      Asp.Http_experiment.duration = 14.0;
      warmup = 2.0;
      (* Three clients round-robin over two gateways: gateway1 serves a
         single client, so its local retry rate runs at a third of the
         fleet aggregate. *)
      client_count = 3;
      trace_requests = 20_000;
      deploy = Asp.Deploy_mode.In_band;
      faults = Some crash;
      adaptation;
      gateways = 2;
      coordination;
    }
  in
  let setup = Asp.Http_experiment.Asp_gateway Planp_jit.Backends.jit in
  let replies point =
    int_of_float
      ((point.Asp.Http_experiment.replies_per_s *. (14.0 -. 2.0)) +. 0.5)
  in
  (* The canned policy with the retry threshold raised to 2/s: above
     what any single gateway's clients generate during the crash, below
     the fleet-wide aggregate. A per-node plane watching only its own
     noisy slice misses the flap (or only the busier gateway catches
     it); the coordinated plane sees the sum and fails the whole fleet
     over in one staged rollout — the aggregation argument for
     coordination, measured. *)
  let policy () =
    match
      Adapt.Policy.parse
        {|period 0.5
alpha 0.4
rule failover: when retry_rate > 2 for 0.5 cooldown 6 do swap http-gateway failover
guard goodput window 4 min-ratio 0.5
|}
    with
    | Ok policy -> policy
    | Error msg -> failwith ("bench adapt_fleet_churn policy: " ^ msg)
  in
  Obs.Registry.reset Obs.Registry.default;
  let static =
    Asp.Http_experiment.run_point
      (config Asp.Http_experiment.Coordinated None)
      setup ~workers:8
  in
  Obs.Registry.reset Obs.Registry.default;
  let independent =
    Asp.Http_experiment.run_point
      (config Asp.Http_experiment.Independent (Some (policy ())))
      setup ~workers:8
  in
  Obs.Registry.reset Obs.Registry.default;
  let coordinated =
    Asp.Http_experiment.run_point
      (config Asp.Http_experiment.Coordinated (Some (policy ())))
      setup ~workers:8
  in
  let s = replies static
  and i = replies independent
  and c = replies coordinated in
  let stats = coordinated.Asp.Http_experiment.adaptation in
  let swaps, failed =
    match stats with
    | Some stats ->
        ( stats.Extnet.Adapt.Plane.st_swaps,
          stats.Extnet.Adapt.Plane.st_failed_swaps )
    | None -> (0, 0)
  in
  let shape =
    shape_check
      [
        ( stats <> None,
          "adapt/fleet-churn: coordinated run reported no plane stats" );
        (failed = 0, Printf.sprintf "adapt/fleet-churn: %d failed swap(s)" failed);
        ( swaps >= 1,
          "adapt/fleet-churn: no coordinated swap under the crash" );
        ( c > s,
          Printf.sprintf
            "adapt/fleet-churn: coordinated did not beat static (%d vs %d)" c s
        );
        ( c > i,
          Printf.sprintf
            "adapt/fleet-churn: coordinated did not beat independent \
             per-node planes (%d vs %d)"
            c i );
        ( i > s,
          Printf.sprintf
            "adapt/fleet-churn: the partially-adapting independent planes \
             did not even beat static (%d vs %d)"
            i s );
      ]
  in
  {
    fc_counts =
      [
        ("static_goodput", s);
        ("independent_goodput", i);
        ("coordinated_goodput", c);
        ("swaps", swaps);
      ];
    fc_shape = shape;
  }

let adapt () =
  section "adapt -- closed-loop adaptation vs static ASPs under faults";
  let cells =
    [
      ("baseline", adapt_baseline ());
      ("lossy", adapt_lossy ());
      ("flappy", adapt_flappy ());
      ("churn", adapt_churn ());
      ("fleet-churn", adapt_fleet_churn ());
    ]
  in
  Printf.printf "%-10s %s\n" "cell" "counts";
  List.iter
    (fun (key, cell) ->
      Printf.printf "%-10s %s\n" key
        (String.concat "  "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              cell.fc_counts)))
    cells;
  let shape_failures = List.concat_map (fun (_, cell) -> cell.fc_shape) cells in
  (match shape_failures with
  | [] ->
      Printf.printf "\nadaptive-vs-static shape: OK (%d cells)\n"
        (List.length cells)
  | messages ->
      Printf.printf "\nadaptive-vs-static shape: FAILED\n";
      List.iter (fun m -> Printf.printf "  - %s\n" m) messages);
  let cells_json =
    Obs.Json.Obj
      (List.map
         (fun (key, cell) ->
           ( key,
             Obs.Json.Obj
               (List.map
                  (fun (k, v) -> (k, Obs.Json.Int v))
                  cell.fc_counts) ))
         cells)
  in
  record "adapt"
    (Obs.Json.Obj
       [
         ("cells", cells_json);
         ( "shape_failures",
           Obs.Json.List
             (List.map (fun m -> Obs.Json.String m) shape_failures) );
       ]);
  baseline_add "adapt" cells_json;
  match !perf_check with
  | None -> if shape_failures <> [] then exit 1
  | Some baseline_path ->
      cells_check_against ~section:"adapt" ~baseline_path ~shape_failures
        cells

(* ------------------------------------------------------------------ *)

let all () =
  fig3 ();
  fig6 ();
  fig7 ();
  fig8 ();
  mpeg ();
  verify ();
  ext ()

(* The metrics sidecar: everything the instrumented layers accumulated
   while the sections ran, as one deterministic JSON document next to the
   printed tables. *)
let write_metrics_sidecar () =
  match !metrics_out with
  | None -> ()
  | Some path ->
      let oc = open_out_bin path in
      output_string oc (Obs.Registry.to_json_string Obs.Registry.default);
      close_out oc;
      Printf.printf "\nwrote metrics JSON to %s\n" path

(* The combined perf baseline: whatever baseline sections ran ("asps"
   from [perf], "scale" from [scale]) as one "planp-bench-perf/1"
   document; this is the file committed as BENCH_PERF.json. *)
let write_perf_baseline () =
  match !perf_out with
  | None -> ()
  | Some path ->
      let doc =
        Obs.Json.Obj
          ([
             ("format", Obs.Json.String "planp-bench-perf/1");
             ("smoke", Obs.Json.Bool !smoke);
           ]
          @ !baseline_sections)
      in
      let oc = open_out_bin path in
      output_string oc (Obs.Json.to_string doc);
      close_out oc;
      Printf.printf "\nwrote perf baseline JSON to %s\n" path

(* The per-figure summary: the headline numbers of every section that ran,
   one JSON document, for dashboards and regression diffing. *)
let write_json_summary () =
  match !json_out with
  | None -> ()
  | Some path ->
      let doc =
        Obs.Json.Obj
          [
            ("format", Obs.Json.String "planp-bench/1");
            ("quick", Obs.Json.Bool !quick);
            ("sections", Obs.Json.Obj !summary);
          ]
      in
      let oc = open_out_bin path in
      output_string oc (Obs.Json.to_string doc);
      close_out oc;
      Printf.printf "\nwrote benchmark summary JSON to %s\n" path

(* Comparing a --smoke run against a full-mode baseline (or vice versa)
   gates nothing real — iteration counts differ enough that allocation
   accounting and ratios drift.  Refuse the mismatch up front instead of
   letting the sections quietly pass. *)
let check_baseline_mode ~baseline_path =
  match
    let ic = open_in_bin baseline_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Obs.Json.of_string s
  with
  | exception Sys_error _ -> () (* each section reports unreadable baselines *)
  | Error _ -> ()
  | Ok baseline -> (
      match Obs.Json.member "smoke" baseline with
      | Some (Obs.Json.Bool base_smoke) when base_smoke <> !smoke ->
          Printf.eprintf
            "baseline %s was written %s --smoke but this run is %s it; \
             regenerate the baseline or match the flags\n"
            baseline_path
            (if base_smoke then "with" else "without")
            (if !smoke then "with" else "without");
          exit 1
      | Some _ | None -> ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> []
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--metrics-out" :: path :: rest ->
        metrics_out := Some path;
        parse rest
    | "--metrics-out" :: [] ->
        prerr_endline "--metrics-out needs a FILE argument";
        exit 1
    | "--json-out" :: path :: rest ->
        json_out := Some path;
        parse rest
    | "--json-out" :: [] ->
        prerr_endline "--json-out needs a FILE argument";
        exit 1
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--full" :: rest ->
        full := true;
        parse rest
    | "--perf-out" :: path :: rest ->
        perf_out := Some path;
        parse rest
    | "--perf-out" :: [] ->
        prerr_endline "--perf-out needs a FILE argument";
        exit 1
    | "--check" :: path :: rest ->
        perf_check := Some path;
        parse rest
    | "--check" :: [] ->
        prerr_endline "--check needs a BASELINE argument";
        exit 1
    | arg :: rest -> arg :: parse rest
  in
  let args = parse args in
  Planp_runtime.Prims.install ();
  (match !perf_check with
  | Some baseline_path -> check_baseline_mode ~baseline_path
  | None -> ());
  (match args with
  | [] | [ "all" ] -> all ()
  | sections ->
      List.iter
        (function
          | "fig3" -> fig3 ()
          | "fig6" -> fig6 ()
          | "fig7" -> fig7 ()
          | "fig8" -> fig8 ()
          | "mpeg" -> mpeg ()
          | "verify" -> verify ()
          | "ext" -> ext ()
          | "perf" -> perf ()
          | "scale" -> scale ()
          | "par" -> par ()
          | "faults" -> faults ()
          | "adapt" -> adapt ()
          | other ->
              Printf.eprintf
                "unknown section %s (expected fig3|fig6|fig7|fig8|mpeg|verify|ext|perf|scale|par|faults|adapt|all)\n"
                other;
              exit 1)
        sections);
  write_perf_baseline ();
  write_metrics_sidecar ();
  write_json_summary ()
