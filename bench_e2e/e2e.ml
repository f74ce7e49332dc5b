(* The end-to-end benchmark: each workload is one of the paper's
   experiments (or the partitioned engine) run whole through its public
   entry point, on the JIT, in the profile the binary was built in.

     e2e.exe --workload audio-fig6 --seed 1 --seconds 30 --trace 0
     e2e.exe --seed 1                 -- every workload, one forked child each
     e2e.exe --smoke                  -- every workload at a small size, checks only

   --trace 0 measures the end-to-end metrics with tracing off: the median
   of 31 zero-duration runs (set-up), one discarded warm-up run, then
   whole runs until --seconds have passed (at least 3).  --trace 1 gives
   the per-layer split instead: cache-on/cache-off pairs of untraced runs
   (the flow-cache ablation and the tracing-overhead base), then one run
   through a backend wrapper that times every channel execution and the
   World callbacks it makes.  Every run's result record and deterministic
   metrics export are hashed; a run whose digest differs from the warm-up
   run's, or whose result breaks the workload's shape assertion, counts
   as failed.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  --json-out F writes the
   full report (quartiles, sample counts, host facts), --trace-out F the
   coarse spans.  bench_e2e/README.md explains the workloads and metrics. *)

module Registry = Obs.Registry
module Json = Obs.Json
module Backend = Planp_runtime.Backend
module World = Planp_runtime.World
module Flowcache = Planp_runtime.Flowcache
module Audio = Asp.Audio_experiment
module Http = Asp.Http_experiment

let jit = Planp_jit.Backends.jit

(* ------------------------------------------------------------------ *)
(* Clock and statistics                                                *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns *. 1e-9

let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, seconds_of_ns (now_ns () - t0))

let sorted xs = List.sort Float.compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), so printed spreads match the ones
   computed from the JSON values with it. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Coarse spans, kept in memory and written by --trace-out             *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_start : int;
  mutable sp_stop : int;
}

let spans = ref []
let next_span = ref 1
let open_span = ref 0
let origin = now_ns ()

let with_span name f =
  let span =
    { sp_id = !next_span; sp_parent = !open_span; sp_name = name;
      sp_start = now_ns (); sp_stop = 0 }
  in
  incr next_span;
  spans := span :: !spans;
  let parent = !open_span in
  open_span := span.sp_id;
  Fun.protect
    ~finally:(fun () ->
      span.sp_stop <- now_ns ();
      open_span := parent)
    f

let spans_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.sp_id);
             ("parent", Json.Int s.sp_parent);
             ("name", Json.String s.sp_name);
             ("start_s", Json.Float (seconds_of_ns (s.sp_start - origin)));
             ("dur_s", Json.Float (seconds_of_ns (s.sp_stop - s.sp_start)));
           ])
       !spans)

(* ------------------------------------------------------------------ *)
(* The timing backend wrapper (traced runs only)                       *)
(* ------------------------------------------------------------------ *)

(* Keeps the wrapped backend's name, profile and replay credit, so the
   runtime, the flow cache and the metrics see the same backend; times
   [compile] as a span and every returned [chan_exec] into a log-scale
   histogram.  Time inside the wrapped World.emit/deliver is callback
   time, so exec self time = exec time - callback time.  A channel
   executed from inside a callback (a synchronous local delivery) is
   part of that callback.  Not domain-safe: only single-domain workloads
   run ASPs. *)
module Traced = struct
  let per_octave = 8

  type stats = {
    mutable calls : int;
    mutable exec_ns : int;
    mutable callback_ns : int;
    hist : int array;
  }

  let bucket ns =
    if ns <= 1 then 0
    else
      min (64 * per_octave - 1)
        (int_of_float (Float.log2 (float_of_int ns) *. float_of_int per_octave))

  (* Upper bound of the bucket holding the q-quantile execution. *)
  let quantile_ns st q =
    if st.calls = 0 then 0.0
    else
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int st.calls))) in
      let rec walk i seen =
        let seen = seen + st.hist.(i) in
        if seen >= rank || i = Array.length st.hist - 1 then
          Float.pow 2.0 (float_of_int (i + 1) /. float_of_int per_octave)
        else walk (i + 1) seen
      in
      walk 0 0

  let wrap backend =
    let st =
      { calls = 0; exec_ns = 0; callback_ns = 0;
        hist = Array.make (64 * per_octave) 0 }
    in
    let depth = ref 0 in
    let callback f =
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () -> st.callback_ns <- st.callback_ns + (now_ns () - t0))
        f
    in
    let wrap_exec (exec : Backend.chan_exec) : Backend.chan_exec =
     fun world ~ps ~ss ~pkt ->
      if !depth > 0 then exec world ~ps ~ss ~pkt
      else begin
        let emit = world.World.emit and deliver = world.World.deliver in
        let world =
          {
            world with
            World.emit =
              (fun target ~chan v -> callback (fun () -> emit target ~chan v));
            deliver = (fun v -> callback (fun () -> deliver v));
          }
        in
        incr depth;
        let t0 = now_ns () in
        let finish () =
          let dt = now_ns () - t0 in
          decr depth;
          st.calls <- st.calls + 1;
          st.exec_ns <- st.exec_ns + dt;
          let b = bucket dt in
          st.hist.(b) <- st.hist.(b) + 1
        in
        match exec world ~ps ~ss ~pkt with
        | result ->
            finish ();
            result
        | exception e ->
            finish ();
            raise e
      end
    in
    let compile checked ~globals =
      with_span ("compile " ^ backend.Backend.backend_name) (fun () ->
          List.map
            (fun (chan, exec) -> (chan, wrap_exec exec))
            (backend.Backend.compile checked ~globals))
    in
    ({ backend with Backend.compile }, st)
end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Full is the measured run; Smoke the tier-1 check size; Zero the
   set-up run: the same config with no simulated duration. *)
type size = Full | Smoke | Zero

type outcome = {
  digest : string;
  events : int;
  delivered : int;
  failures : string list;  (* shape assertions that did not hold *)
}

let snapshot () = Registry.snapshot ~include_volatile:true Registry.default

(* A metric summed over every label set (partitions, nodes, links). *)
let total snap name =
  List.fold_left
    (fun acc e ->
      if String.equal e.Registry.e_name name then
        acc
        +.
        match e.Registry.e_sample with
        | Registry.Scounter n -> float_of_int n
        | Registry.Sgauge v -> v
        | Registry.Shistogram { hs_sum; _ } -> hs_sum
      else acc)
    0.0 snap

(* The digest covers the experiment's result record and the
   deterministic metrics export (volatile timings and execution-plane
   counters excluded), so it moves exactly when simulated behaviour
   does. *)
let outcome ~result ?events ?delivered checks =
  let snap = snapshot () in
  let count explicit name =
    match explicit with
    | Some n -> n
    | None -> int_of_float (total snap name)
  in
  {
    digest =
      Digest.to_hex
        (Digest.string
           (Marshal.to_string result [ Marshal.No_sharing ]
           ^ Registry.to_json_string Registry.default));
    events = count events "netsim.engine.events";
    delivered = count delivered "netsim.node.delivered";
    failures =
      List.filter_map (fun (ok, message) -> if ok then None else Some message) checks;
  }

(* Fig. 6 unchanged: 500 simulated seconds of stepped cross traffic,
   router and client ASPs preinstalled.  No random input, so the seed
   does not change it. *)
let audio_fig6 size ~seed:_ ~backend ~reference:_ =
  let config =
    match size with
    | Full -> Audio.fig6_config ~backend ()
    | Smoke -> Audio.quick_config ~backend ()
    | Zero -> { (Audio.fig6_config ~backend ()) with Audio.duration = 0.0 }
  in
  let r = Audio.run config in
  let s16, m16, m8 = r.Audio.wire_quality_counts in
  outcome ~result:r
    [
      ( s16 > 0 && m16 > 0 && m8 > 0,
        Printf.sprintf "wire qualities %d/%d/%d: one never appeared" s16 m16 m8 );
      ( 20 * r.Audio.frames_received >= 19 * r.Audio.frames_sent,
        Printf.sprintf "received %d of %d frames (< 95%%)" r.Audio.frames_received
          r.Audio.frames_sent );
    ]

let servers_balanced (a, b) = a > 0 && b > 0 && 10 * abs (a - b) <= max a b

(* The Fig. 8 JIT gateway curve at its top load point.  The trace is
   sized so the clients never run dry inside the 150 s run. *)
let http_fig8 size ~seed ~backend ~reference:_ =
  let duration, warmup, trace_requests =
    match size with
    | Full -> (150.0, 5.0, 400_000)
    | Smoke -> (3.0, 0.5, 10_000)
    | Zero -> (0.0, 0.0, 400_000)
  in
  let config =
    { Http.default_config with
      Http.duration; warmup; client_count = 16; trace_requests; seed }
  in
  let p = Http.run_point config (Http.Asp_gateway backend) ~workers:64 in
  let a, b = p.Http.server_loads in
  outcome ~result:p
    [
      (p.Http.replies_per_s > 0.0, "no replies");
      ( servers_balanced p.Http.server_loads,
        Printf.sprintf "server loads %d/%d differ by more than 10%%" a b );
    ]

(* server1 crashes for [down] seconds [count] times, [every] seconds
   apart, each start jittered by up to [jitter] seconds from the seed. *)
let server1_flaps ~seed ~count ~first ~every ~jitter ~down =
  let rng = Asp.Rng.create ~seed in
  Netsim.Faults.scenario_of_events ~seed
    (List.init count (fun k ->
         let at =
           first +. (every *. float_of_int k) +. (jitter *. Asp.Rng.float rng)
         in
         {
           Netsim.Faults.ft_at = at;
           ft_until = Some (at +. down);
           ft_kind = Netsim.Faults.Crash { wipe = false };
           ft_target = Some (Netsim.Faults.Tnode "server1");
         }))

(* The Fig. 8 datapath plus every write the control plane makes:
   in-band deploy to a 2-gateway fleet, a coordinated failover rollout,
   epoch bumps and fault reconvergence on each crash. *)
let http_fleet_flap size ~seed ~backend ~reference:_ =
  let flaps_300s =
    server1_flaps ~seed ~count:10 ~first:10.0 ~every:30.0 ~jitter:2.0 ~down:6.0
  in
  let duration, warmup, clients, workers, trace_requests, flaps =
    match size with
    | Full -> (300.0, 5.0, 8, 256, 1_000_000, flaps_300s)
    | Smoke ->
        ( 16.0, 2.0, 3, 24, 20_000,
          server1_flaps ~seed ~count:1 ~first:4.0 ~every:0.0 ~jitter:1.0
            ~down:6.0 )
    | Zero -> (0.0, 0.0, 8, 256, 1_000_000, flaps_300s)
  in
  let config =
    { Http.default_config with
      Http.duration; warmup; client_count = clients; trace_requests; seed;
      deploy = Asp.Deploy_mode.In_band; faults = Some flaps;
      adaptation = Some (Http.adaptive_policy ()); gateways = 2;
      coordination = Http.Coordinated }
  in
  let p = Http.run_point config (Http.Asp_gateway backend) ~workers in
  let a, b = p.Http.server_loads in
  let swaps, failed, rollbacks =
    match p.Http.adaptation with
    | Some st ->
        (st.Adapt.Plane.st_swaps, st.Adapt.Plane.st_failed_swaps,
         st.Adapt.Plane.st_rollbacks)
    | None -> (0, 0, 0)
  in
  outcome ~result:p
    [
      (swaps >= 1, "no coordinated swap");
      (failed = 0, Printf.sprintf "%d failed swap(s)" failed);
      (rollbacks = 0, Printf.sprintf "%d rollback(s)" rollbacks);
      (a > 0 && b > 0, Printf.sprintf "server loads %d/%d: one server idle" a b);
    ]

(* Four islands (a router and 8 hosts each, UDP ping-pong between every
   host and its router) bridged router to router in a chain; the bridges
   are the only cut.  The topology of `bench par`'s cut rows, with a
   seeded start stagger.  Runs on 2 domains; the warm-up run is the 1-domain
   reference, so its digest pins the partitioned run to the sequential
   one.  Delivered packets are the bounce handlers' own count, one
   padded cell per island (an island never spans two domains). *)
let par_islands size ~seed ~backend:_ ~reference =
  let stop = match size with Full -> 200.0 | Smoke -> 2.0 | Zero -> 0.0 in
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
      hosts := (i, host, router) :: !hosts
    done;
    (match !routers with
    | (_, prev) :: _ ->
        ignore
          (Netsim.Topology.connect topo prev router ~latency:0.005
             ~bandwidth_bps:100_000_000.0)
    | [] -> ());
    routers := (i, router) :: !routers
  done;
  Netsim.Topology.compute_routes topo;
  let par =
    match Netsim.Par_engine.of_topology topo ~domains:(if reference then 1 else 2) with
    | Ok par -> par
    | Error message -> failwith ("par-islands: " ^ message)
  in
  (* Handlers and injection come after the shard: Par_engine requires an
     empty schedule at shard time. *)
  let bounced = Array.init islands (fun _ -> Array.make 16 0) in
  let payload = Netsim.Payload.of_string (String.make 64 'z') in
  let bounce island port node packet =
    bounced.(island - 1).(0) <- bounced.(island - 1).(0) + 1;
    Netsim.Node.send_udp node ~dst:packet.Netsim.Packet.src ~src_port:port
      ~dst_port:
        (match packet.Netsim.Packet.l4 with
        | Netsim.Packet.Udp h -> h.Netsim.Packet.udp_src
        | _ -> port)
      payload
  in
  let rng = Asp.Rng.create ~seed in
  let start node ~dst ~src_port ~dst_port =
    Netsim.Engine.schedule
      (Netsim.Par_engine.engine_of par node)
      ~at:(1e-3 *. Asp.Rng.float rng)
      (fun () -> Netsim.Node.send_udp node ~dst ~src_port ~dst_port payload)
  in
  List.iter
    (fun (i, host, router) ->
      Netsim.Node.on_udp host ~port:8001 (bounce i 8001);
      Netsim.Node.on_udp router ~port:8000 (bounce i 8000);
      start host ~dst:(Netsim.Node.addr router) ~src_port:8001 ~dst_port:8000)
    (List.rev !hosts);
  let rec seed_bridges = function
    | (i, a) :: ((j, b) :: _ as rest) ->
        Netsim.Node.on_udp a ~port:9100 (bounce i 9100);
        Netsim.Node.on_udp b ~port:9100 (bounce j 9100);
        start a ~dst:(Netsim.Node.addr b) ~src_port:9100 ~dst_port:9100;
        seed_bridges rest
    | _ -> ()
  in
  seed_bridges (List.rev !routers);
  Netsim.Par_engine.run_until par ~stop;
  let events =
    Array.fold_left
      (fun acc e -> acc + Netsim.Engine.events_processed e)
      0
      (Netsim.Par_engine.engines par)
  in
  let delivered = Array.fold_left (fun acc c -> acc + c.(0)) 0 bounced in
  outcome ~result:(events, delivered) ~events ~delivered
    [ (delivered > 0, "no packet bounced") ]

type workload = {
  name : string;
  domains : int;
  sources : unit -> string list;  (* the ASPs it compiles, for the layer split *)
  run :
    size -> seed:int -> backend:Backend.t -> reference:bool -> outcome;
}

let workloads =
  [
    {
      name = "audio-fig6";
      domains = 1;
      sources =
        (fun () ->
          [ Asp.Audio_asp.router_program ~iface:1 (); Asp.Audio_asp.client_program () ]);
      run = audio_fig6;
    };
    {
      name = "http-fig8";
      domains = 1;
      sources =
        (fun () ->
          [ Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
              ~servers:("10.3.0.1", "10.3.0.2") () ]);
      run = http_fig8;
    };
    {
      name = "http-fleet-flap";
      domains = 1;
      sources =
        (fun () ->
          [
            Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
              ~servers:("10.3.0.1", "10.3.0.2") ();
            Asp.Http_asp.failover_gateway_program ~vip:"10.3.0.100"
              ~servers:("10.3.0.1", "10.3.0.2") ();
          ]);
      run = http_fleet_flap;
    };
    { name = "par-islands"; domains = 2; sources = (fun () -> []); run = par_islands };
  ]

(* ------------------------------------------------------------------ *)
(* Runs and output checks                                              *)
(* ------------------------------------------------------------------ *)

type sample = {
  outcome : outcome;
  run_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let seed = ref 1

(* One whole workload call from a freshly collected heap and an empty
   metrics registry; an exception is a failed run, not a crash. *)
let run_once w ~size ~backend ~reference ~cache ~label =
  Registry.reset Registry.default;
  Flowcache.set_enabled cache;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let outcome, run_s =
    with_span label (fun () ->
        timed (fun () ->
            try w.run size ~seed:!seed ~backend ~reference
            with e ->
              { digest = ""; events = 0; delivered = 0;
                failures = [ "raised " ^ Printexc.to_string e ] }))
  in
  let g1 = Gc.quick_stat () in
  {
    outcome;
    run_s;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
  }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;
}

let check tally ~reference s =
  let failures =
    s.outcome.failures
    @
    if String.equal s.outcome.digest reference.outcome.digest then []
    else
      [ Printf.sprintf "digest %s differs from the warm-up run's %s"
          s.outcome.digest reference.outcome.digest ]
  in
  tally.attempted <- tally.attempted + 1;
  if failures <> [] then begin
    tally.failed <- tally.failed + 1;
    tally.messages <- tally.messages @ failures
  end

(* Calls [f] until [seconds] have passed (the next call predicted from
   the last one), at least [min] times. *)
let repeat ~min ~seconds f =
  let t0 = now_ns () in
  let rec go acc n last =
    if n >= min && seconds_of_ns (now_ns () - t0) +. last > seconds then
      List.rev acc
    else
      let x, dt = timed f in
      go (x :: acc) (n + 1) dt
  in
  go [] 0 0.0

(* ------------------------------------------------------------------ *)
(* Metrics and reports                                                 *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_unit : string; m_samples : float list }

let metric m_name m_unit m_samples = { m_name; m_unit; m_samples }
let value m = median m.m_samples

let metric_json m =
  let q1, q3 = quartiles m.m_samples in
  ( m.m_name,
    Json.Obj
      [
        ("unit", Json.String m.m_unit);
        ("median", Json.Float (value m));
        ("q1", Json.Float q1);
        ("q3", Json.Float q3);
        ("n", Json.Int (List.length m.m_samples));
      ] )

let print_metrics title metrics =
  Printf.printf "\n%-34s %-11s %14s %14s %14s %4s\n" title "unit" "median" "q1"
    "q3" "n";
  List.iter
    (fun m ->
      let q1, q3 = quartiles m.m_samples in
      Printf.printf "%-34s %-11s %14.6g %14.6g %14.6g %4d\n" m.m_name m.m_unit
        (value m) q1 q3 (List.length m.m_samples))
    metrics

(* The result: the last line of stdout, every value with all its
   digits. *)
let result_line tally metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun m ->
            let v = value m in
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} m.m_name
              (if Float.is_finite v then v else 0.0)
              m.m_unit)
          metrics))

let cores = Domain.recommended_domain_count ()

let host_json ~reps =
  Json.Obj
    [
      ("cores", Json.Int cores);
      ("ocaml", Json.String Sys.ocaml_version);
      ("profile", Json.String Build_info.profile);
      ("seed", Json.Int !seed);
      ("reps", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) reps));
    ]

let print_host w ~trace ~reps =
  Printf.printf "e2e %s: seed %d, tracing %s\n" w.name !seed
    (if trace then "on (per-layer split)" else "off (end-to-end metrics)");
  Printf.printf "host: %d core(s), OCaml %s, %s profile; reps %s\n" cores
    Sys.ocaml_version Build_info.profile
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) reps));
  if w.domains > 1 && cores < 2 then
    print_endline
      "note: fewer than 2 cores, so this measures the partitioned engine's \
       overhead, not its speedup"

let setup_reps = 31

(* Tracing off: the end-to-end metrics. *)
let measure w ~seconds tally =
  let setup =
    List.init setup_reps (fun _ ->
        run_once w ~size:Zero ~backend:jit ~reference:false ~cache:true
          ~label:"set-up")
  in
  let warm =
    run_once w ~size:Full ~backend:jit ~reference:true ~cache:true ~label:"warm-up"
  in
  check tally ~reference:warm warm;
  let runs =
    repeat ~min:3 ~seconds (fun () ->
        run_once w ~size:Full ~backend:jit ~reference:false ~cache:true
          ~label:"run")
  in
  List.iter (check tally ~reference:warm) runs;
  let per_s count = List.map (fun s -> float_of_int (count s) /. s.run_s) runs in
  let heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1e6
  in
  let metrics =
    [
      metric "run_s" "s" (List.map (fun s -> s.run_s) runs);
      metric "events_per_s" "events/s" (per_s (fun s -> s.outcome.events));
      metric "delivered_pkts_per_s" "pkts/s" (per_s (fun s -> s.outcome.delivered));
      metric "setup_s" "s" (List.map (fun s -> s.run_s) setup);
      metric "peak_heap_mb" "MB" [ heap_mb ];
    ]
  in
  let reps = [ ("set-up", setup_reps); ("warm-up", 1); ("timed", List.length runs) ] in
  (warm, metrics, reps)

(* Parse and typecheck, verify, and JIT-compile times of one ASP
   source, the median of 15 calls each. *)
let front_end_times source =
  with_span "check, verify, compile" (fun () ->
      let med f = median (List.init 15 (fun _ -> snd (timed f))) in
      let checked =
        match Extnet.check_source source with
        | Ok checked -> checked
        | Error message -> failwith message
      in
      let world, _, _ = World.dummy () in
      let globals =
        List.fold_left
          (fun globals decl ->
            match decl with
            | Planp.Ast.Dval ({ Planp.Ast.bind_name; bind_expr; _ }, _) ->
                globals
                @ [ ( bind_name,
                      Planp_runtime.Interp.eval_const ~world ~globals bind_expr ) ]
            | _ -> globals)
          [] checked.Planp.Typecheck.program
      in
      ( med (fun () -> ignore (Extnet.check_source source)),
        med (fun () ->
            ignore (Planp_analysis.Verifier.verify checked.Planp.Typecheck.program)),
        med (fun () -> ignore (jit.Backend.compile checked ~globals)) ))

(* Tracing on: the per-layer split. *)
let split w ~seconds tally =
  let warm =
    run_once w ~size:Full ~backend:jit ~reference:true ~cache:true ~label:"warm-up"
  in
  check tally ~reference:warm warm;
  (* Flow-cache ablation, order alternating pair to pair.  The cache-on
     runs are also the untraced base of the tracing overhead. *)
  let run_cache cache =
    run_once w ~size:Full ~backend:jit ~reference:false ~cache
      ~label:(if cache then "cache on" else "cache off")
  in
  let pair_index = ref 0 in
  let pairs =
    repeat ~min:3 ~seconds (fun () ->
        incr pair_index;
        if !pair_index mod 2 = 1 then
          let on = run_cache true in
          (on, run_cache false)
        else
          let off = run_cache false in
          (run_cache true, off))
  in
  List.iter
    (fun (on, off) ->
      check tally ~reference:warm on;
      check tally ~reference:warm off)
    pairs;
  let on = List.map fst pairs in
  let savings = List.map (fun (on, off) -> off.run_s -. on.run_s) pairs in
  let traced_backend, st = Traced.wrap jit in
  let traced =
    run_once w ~size:Full ~backend:traced_backend ~reference:false ~cache:true
      ~label:"traced run"
  in
  check tally ~reference:warm traced;
  let snap = snapshot () in
  let count name = total snap name in
  let front = List.map front_end_times (w.sources ()) in
  let front_total f = List.fold_left (fun acc t -> acc +. f t) 0.0 front in
  let exec_s = seconds_of_ns st.Traced.exec_ns in
  let callback_s = seconds_of_ns st.Traced.callback_ns in
  let untraced_s = median (List.map (fun s -> s.run_s) on) in
  let hits = count "runtime.cache.hits" and misses = count "runtime.cache.misses" in
  let one name unit v = metric name unit [ v ] in
  let counted name = one name "count" (count name) in
  let metrics =
    [
      one "traced.run_s" "s" traced.run_s;
      one "untraced.run_s" "s" untraced_s;
      one "trace_overhead_frac" "ratio" ((traced.run_s -. untraced_s) /. untraced_s);
      one "backend.exec_calls" "count" (float_of_int st.Traced.calls);
      one "backend.exec_s" "s" exec_s;
      one "backend.exec_self_s" "s" (exec_s -. callback_s);
      one "backend.callback_s" "s" callback_s;
      one "sim.other_s" "s" (traced.run_s -. exec_s);
      one "backend.exec_ns_p50" "ns" (Traced.quantile_ns st 0.5);
      one "backend.exec_ns_p99" "ns" (Traced.quantile_ns st 0.99);
      one "planp.check_s" "s" (front_total (fun (c, _, _) -> c));
      one "planp_analysis.verify_s" "s" (front_total (fun (_, v, _) -> v));
      one "backend.compile_s" "s" (front_total (fun (_, _, c) -> c));
      counted "planp.runtime.handled";
      counted "planp.runtime.fallthrough";
      counted "planp.runtime.errors";
      counted "runtime.cache.hits";
      counted "runtime.cache.misses";
      counted "runtime.cache.skipped";
      counted "runtime.cache.invalidations";
      one "runtime.cache.hit_ratio" "ratio"
        (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      metric "runtime.cache.saving_s" "s" savings;
      one "netsim.engine.events" "count" (float_of_int traced.outcome.events);
      (* The gauge sums per-engine process CPU time, so it overcounts by
         the domain count on partitioned runs: read on one domain only. *)
      one "netsim.engine.cpu_s" "s"
        (if w.domains = 1 then count "netsim.engine.wall_cpu_s" else 0.0);
      counted "netsim.engine.heap_depth_max";
      counted "netsim.link.tx_packets";
      counted "netsim.link.drops";
      counted "netsim.segment.frames";
      counted "netsim.segment.drops";
      counted "netsim.node.frames_in";
      counted "netsim.node.forwarded";
      counted "netsim.node.delivered";
      counted "netsim.node.drops";
      counted "netsim.node.hook_invocations";
      counted "netsim.par.rounds";
      counted "netsim.par.null_messages";
      counted "netsim.par.horizon_stalls";
      counted "netsim.par.cross_packets";
      counted "netsim.faults.injected";
      counted "deploy.controller.capsules_sent";
      counted "deploy.controller.retransmissions";
      counted "deploy.daemon.installs";
      one "deploy.daemon.verify_wall_s" "s" (count "deploy.daemon.verify_wall_s");
      counted "adapt.monitor.ticks";
      counted "adapt.rules.fired";
      counted "adapt.swaps.acked";
      counted "adapt.rollbacks";
      metric "gc.minor_words_per_event" "words/event"
        (List.map
           (fun s -> s.minor_words /. float_of_int (max 1 s.outcome.events))
           on);
      metric "gc.promoted_words" "words" (List.map (fun s -> s.promoted_words) on);
      metric "gc.major_collections" "count"
        (List.map (fun s -> float_of_int s.major_collections) on);
    ]
  in
  let reps =
    [ ("warm-up", 1); ("cache pairs", List.length pairs); ("traced", 1) ]
  in
  (warm, metrics, reps)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* One workload in this process: prints its tables and returns the
   full report, the result line and whether every check held. *)
let single w ~seconds ~trace =
  let tally = { attempted = 0; failed = 0; messages = [] } in
  let warm, metrics, reps = (if trace then split else measure) w ~seconds tally in
  print_host w ~trace ~reps;
  Printf.printf "digest %s (events %d, delivered %d per run)\n"
    warm.outcome.digest warm.outcome.events warm.outcome.delivered;
  print_metrics (if trace then "per-layer metric" else "end-to-end metric") metrics;
  if trace then begin
    let get name = value (List.find (fun m -> String.equal m.m_name name) metrics) in
    let traced_s = get "traced.run_s" in
    Printf.printf "\nbreakdown of the traced run (%.4f s):\n" traced_s;
    List.iter
      (fun name ->
        Printf.printf "  %-22s %10.4f s  %5.1f%%\n" name (get name)
          (100.0 *. get name /. traced_s))
      [ "backend.exec_self_s"; "backend.callback_s"; "sim.other_s" ]
  end;
  Printf.printf "\nfailed_frac %d/%d\n" tally.failed tally.attempted;
  List.iter (Printf.printf "  failed: %s\n") tally.messages;
  let report =
    Json.Obj
      [
        ("format", Json.String "planp-bench-e2e/1");
        ("workload", Json.String w.name);
        ("trace", Json.Bool trace);
        ("host", host_json ~reps);
        ("digest", Json.String warm.outcome.digest);
        ("attempted", Json.Int tally.attempted);
        ("failed", Json.Int tally.failed);
        ("failures", Json.List (List.map (fun m -> Json.String m) tally.messages));
        ("metrics", Json.Obj (List.map metric_json metrics));
      ]
  in
  (report, result_line tally metrics, tally.failed = 0)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Runs [f] in a forked child (so each workload's peak heap is its own)
   and returns what the child wrote to the pipe, and whether it exited
   0.  Domains are only ever spawned inside children. *)
let in_child f =
  flush stdout;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let ok = f oc in
      close_out oc;
      exit (if ok then 0 else 1)
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let output = In_channel.input_all ic in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      (output, status = Unix.WEXITED 0)

let smoke () =
  let results =
    List.map
      (fun w ->
        let tally = { attempted = 0; failed = 0; messages = [] } in
        let reference =
          run_once w ~size:Smoke ~backend:jit ~reference:true ~cache:true
            ~label:"smoke"
        in
        check tally ~reference reference;
        let backend, _ = Traced.wrap jit in
        check tally ~reference
          (run_once w ~size:Smoke ~backend ~reference:false ~cache:true
             ~label:"smoke traced");
        Printf.printf "smoke %-16s %s  digest %s\n" w.name
          (if tally.failed = 0 then "ok" else "FAILED")
          reference.outcome.digest;
        List.iter (Printf.printf "  failed: %s\n") tally.messages;
        tally.failed = 0)
      workloads
  in
  exit (if List.for_all Fun.id results then 0 else 1)

let () =
  let workload = ref None
  and seconds = ref 30.0
  and trace = ref 0
  and smoke_only = ref false
  and json_out = ref None
  and trace_out = ref None in
  let names = String.concat "|" (List.map (fun w -> w.name) workloads) in
  let specs =
    Arg.align
      [
        ( "--workload",
          Arg.String (fun s -> workload := Some s),
          Printf.sprintf "NAME %s (default: every workload)" names );
        ("--seed", Arg.Set_int seed, "N seed of the generated inputs (default 1)");
        ("--seconds", Arg.Set_float seconds, "S measuring time per workload (default 30)");
        ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer split");
        ("--json-out", Arg.String (fun s -> json_out := Some s), "F write the full report");
        ("--trace-out", Arg.String (fun s -> trace_out := Some s), "F write the spans");
        ("--smoke", Arg.Set smoke_only, " every workload at a small size, checks only");
      ]
  in
  let usage = "e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke_only then smoke ();
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "e2e: --trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 and seconds = !seconds in
  let selected =
    match !workload with
    | None -> workloads
    | Some name -> (
        match List.find_opt (fun w -> String.equal w.name name) workloads with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "e2e: unknown workload %s (one of %s)\n" name names;
            exit 2)
  in
  match selected with
  | [ w ] ->
      let report, line, ok = single w ~seconds ~trace in
      Option.iter (fun path -> write_file path (Json.to_string report)) !json_out;
      Option.iter
        (fun path -> write_file path (Json.to_string (spans_json ())))
        !trace_out;
      print_endline line;
      exit (if ok then 0 else 1)
  | selected ->
      let children =
        List.map
          (fun w ->
            let output, ok =
              in_child (fun oc ->
                  let report, line, ok = single w ~seconds ~trace in
                  print_endline line;
                  print_newline ();
                  output_string oc
                    (Json.to_string
                       (Json.Obj [ ("report", report); ("spans", spans_json ()) ]));
                  ok)
            in
            match Json.of_string output with
            | Ok child -> (w.name, Some child, ok)
            | Error _ -> (w.name, None, false))
          selected
      in
      let part key =
        Json.Obj
          (List.filter_map
             (fun (name, child, _) ->
               Option.bind child (fun c ->
                   Option.map (fun j -> (name, j)) (Json.member key c)))
             children)
      in
      Option.iter (fun path -> write_file path (Json.to_string (part "report"))) !json_out;
      Option.iter (fun path -> write_file path (Json.to_string (part "spans"))) !trace_out;
      exit (if List.for_all (fun (_, _, ok) -> ok) children then 0 else 1)
