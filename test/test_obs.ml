(* The observability layer: registry semantics, export determinism, and
   the merged timeline. Everything here uses private registries so the
   process-wide [Obs.Registry.default] (fed by the simulator) stays out of
   the assertions — except the determinism test, which drives two full
   simulated runs against [default] the way the CLI does. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* --- counters ----------------------------------------------------- *)

(* A partitioned run bumps unlabelled cells (the backends' per-packet
   counters) from several domains at once; no increment may be lost. *)
let counter_concurrent_domains () =
  let registry = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry "shared" in
  let per_domain = 5_000_000 in
  let bump () =
    for i = 1 to per_domain do
      if i land 1 = 0 then Obs.Registry.incr c else Obs.Registry.add c 1
    done
  in
  let others = List.init 3 (fun _ -> Domain.spawn bump) in
  bump ();
  List.iter Domain.join others;
  check "every increment counted" (4 * per_domain) (Obs.Registry.count c)

let counter_get_or_create () =
  let registry = Obs.Registry.create () in
  let c1 = Obs.Registry.counter ~registry "requests" in
  let c2 = Obs.Registry.counter ~registry "requests" in
  Obs.Registry.incr c1;
  Obs.Registry.add c2 2;
  (* Same name, same labels: both handles hit one cell. *)
  check "aggregated" 3 (Obs.Registry.count c1);
  check "same cell" 3 (Obs.Registry.count c2)

let counter_labels_distinguish () =
  let registry = Obs.Registry.create () in
  let a = Obs.Registry.counter ~registry ~labels:[ ("node", "a") ] "hits" in
  let b = Obs.Registry.counter ~registry ~labels:[ ("node", "b") ] "hits" in
  Obs.Registry.incr a;
  check "a independent" 1 (Obs.Registry.count a);
  check "b independent" 0 (Obs.Registry.count b)

let counter_label_order_canonical () =
  let registry = Obs.Registry.create () in
  let x =
    Obs.Registry.counter ~registry ~labels:[ ("b", "2"); ("a", "1") ] "m"
  in
  let y =
    Obs.Registry.counter ~registry ~labels:[ ("a", "1"); ("b", "2") ] "m"
  in
  Obs.Registry.incr x;
  (* Label order never matters: both orderings canonicalize to one cell. *)
  check "canonicalized to one cell" 1 (Obs.Registry.count y);
  checks "canonical rendering" "a=1,b=2"
    (Obs.Registry.labels_to_string [ ("b", "2"); ("a", "1") ])

let counter_rejects_negative () =
  let registry = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry "mono" in
  checkb "negative add raises" true
    (try
       Obs.Registry.add c (-1);
       false
     with Invalid_argument _ -> true)

let kind_mismatch_raises () =
  let registry = Obs.Registry.create () in
  ignore (Obs.Registry.counter ~registry "dual");
  checkb "same name as gauge raises" true
    (try
       ignore (Obs.Registry.gauge ~registry "dual");
       false
     with Invalid_argument _ -> true)

(* --- gauges -------------------------------------------------------- *)

let gauge_set_and_callback () =
  let registry = Obs.Registry.create () in
  let g = Obs.Registry.gauge ~registry "depth" in
  Obs.Registry.set g 7.0;
  checkf "stored" 7.0 (Obs.Registry.gauge_value g);
  let current = ref 3.0 in
  Obs.Registry.set_fn g (fun () -> !current);
  current := 11.0;
  (* Callback gauges sample at read time, not at set_fn time. *)
  checkf "sampled late" 11.0 (Obs.Registry.gauge_value g)

let volatile_excluded_from_exports () =
  let registry = Obs.Registry.create () in
  let w = Obs.Registry.gauge ~registry ~volatile:true "wall_s" in
  let s = Obs.Registry.gauge ~registry "sim_s" in
  Obs.Registry.set w 1.23;
  Obs.Registry.set s 4.56;
  let default = Obs.Registry.to_json_string registry in
  checkb "volatile hidden by default" false (contains default "wall_s");
  checkb "stable gauge exported" true (contains default "sim_s");
  let full = Obs.Registry.to_json_string ~include_volatile:true registry in
  checkb "volatile on request" true (contains full "wall_s")

(* --- histograms ----------------------------------------------------- *)

let histogram_buckets () =
  (* The log-scale invariant: slots are half-open powers-of-two ranges
     [2^(e-1), 2^e), so every value sits at or above the previous slot's
     bound and strictly below its own. *)
  List.iter
    (fun v ->
      let slot = Obs.Registry.bucket_of v in
      let upper = Obs.Registry.bucket_upper_bound slot in
      checkb (Printf.sprintf "%g within bound %g" v upper) true (v <= upper);
      if slot > 0 && v > 0.0 then
        checkb
          (Printf.sprintf "%g at or above previous bound" v)
          true
          (v >= Obs.Registry.bucket_upper_bound (slot - 1)))
    [ 1e-9; 0.001; 0.5; 1.0; 1.5; 2.0; 3.0; 1024.0; 1e9 ];
  check "nonpositive to slot zero" 0 (Obs.Registry.bucket_of (-4.0));
  check "zero to slot zero" 0 (Obs.Registry.bucket_of 0.0);
  (* A power of two opens a new slot: 2.0 sits with 3.0 in [2, 4), not
     with 1.5 in [1, 2). *)
  check "same slot for [2, 4)" (Obs.Registry.bucket_of 2.0)
    (Obs.Registry.bucket_of 3.0);
  checkb "1.5 and 2.0 in different slots" true
    (Obs.Registry.bucket_of 1.5 <> Obs.Registry.bucket_of 2.0)

let histogram_observe_and_export () =
  let registry = Obs.Registry.create () in
  let h = Obs.Registry.histogram ~registry "lat" in
  List.iter (Obs.Registry.observe h) [ 0.5; 0.5; 3.0 ];
  check "observations" 3 (Obs.Registry.observations h);
  match Obs.Registry.snapshot registry with
  | [ { Obs.Registry.e_sample =
          Obs.Registry.Shistogram { hs_count; hs_sum; hs_buckets };
        _ } ] ->
      check "count" 3 hs_count;
      checkf "sum" 4.0 hs_sum;
      (* Sparse buckets: only touched slots appear. *)
      check "two occupied buckets" 2 (List.length hs_buckets);
      checkb "0.5 bucket has two" true
        (List.exists (fun (_, n) -> n = 2) hs_buckets)
  | _ -> Alcotest.fail "expected exactly one histogram entry"

(* --- typed reads ----------------------------------------------------- *)

let typed_reads () =
  let registry = Obs.Registry.create () in
  let c =
    Obs.Registry.counter ~registry ~labels:[ ("node", "a") ] "hits"
  in
  Obs.Registry.add c 7;
  let g = Obs.Registry.gauge ~registry "depth" in
  Obs.Registry.set g 2.5;
  let h = Obs.Registry.histogram ~registry "lat" in
  Obs.Registry.observe h 1.0;
  Obs.Registry.observe h 3.0;
  (match Obs.Registry.read_counter ~registry ~labels:[ ("node", "a") ] "hits" with
  | Some n -> check "counter value" 7 n
  | None -> Alcotest.fail "counter not found");
  (match Obs.Registry.read_gauge ~registry "depth" with
  | Some v -> checkf "gauge value" 2.5 v
  | None -> Alcotest.fail "gauge not found");
  (match Obs.Registry.read_histogram ~registry "lat" with
  | Some (n, sum) ->
      check "histogram count" 2 n;
      checkf "histogram sum" 4.0 sum
  | None -> Alcotest.fail "histogram not found");
  (match Obs.Registry.read_quantile ~registry ~q:1.0 "lat" with
  | Some v -> checkb "q1 covers the max" true (v >= 3.0)
  | None -> Alcotest.fail "quantile not found");
  checkf "quantile by handle agrees" (Obs.Registry.quantile h 1.0)
    (Option.get (Obs.Registry.read_quantile ~registry ~q:1.0 "lat"))

let typed_reads_never_create () =
  let registry = Obs.Registry.create () in
  checkb "absent counter is None" true
    (Obs.Registry.read_counter ~registry "ghost" = None);
  checkb "absent gauge is None" true
    (Obs.Registry.read_gauge ~registry "ghost" = None);
  checkb "absent histogram is None" true
    (Obs.Registry.read_histogram ~registry "ghost" = None);
  checkb "absent quantile is None" true
    (Obs.Registry.read_quantile ~registry ~q:0.5 "ghost" = None);
  (* Probing registered nothing: the registry is still empty. *)
  check "no cells created" 0 (List.length (Obs.Registry.snapshot registry));
  (* Labels are part of the key: same name, other labels, still None. *)
  ignore (Obs.Registry.counter ~registry ~labels:[ ("node", "a") ] "hits");
  checkb "label mismatch is None" true
    (Obs.Registry.read_counter ~registry ~labels:[ ("node", "b") ] "hits"
    = None)

let typed_reads_wrong_kind_raises () =
  let registry = Obs.Registry.create () in
  ignore (Obs.Registry.counter ~registry "c");
  checkb "reading a counter as a gauge raises" true
    (match Obs.Registry.read_gauge ~registry "c" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "reading a counter as a histogram raises" true
    (match Obs.Registry.read_histogram ~registry "c" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- reset --------------------------------------------------------- *)

let reset_drops_metrics () =
  let registry = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry "gone" in
  Obs.Registry.incr c;
  Obs.Registry.reset registry;
  check "empty snapshot" 0 (List.length (Obs.Registry.snapshot registry));
  (* Re-created handles start fresh. *)
  let c' = Obs.Registry.counter ~registry "gone" in
  check "fresh cell" 0 (Obs.Registry.count c')

(* --- exports --------------------------------------------------------- *)

let snapshot_sorted () =
  let registry = Obs.Registry.create () in
  ignore (Obs.Registry.counter ~registry "zz");
  ignore (Obs.Registry.counter ~registry "aa");
  ignore (Obs.Registry.counter ~registry ~labels:[ ("x", "2") ] "mm");
  ignore (Obs.Registry.counter ~registry ~labels:[ ("x", "1") ] "mm");
  let names =
    List.map
      (fun e ->
        e.Obs.Registry.e_name
        ^ Obs.Registry.labels_to_string e.Obs.Registry.e_labels)
      (Obs.Registry.snapshot registry)
  in
  Alcotest.(check (list string))
    "sorted by name then labels"
    [ "aa"; "mmx=1"; "mmx=2"; "zz" ]
    names

let csv_rows () =
  let registry = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry ~labels:[ ("node", "a") ] "hits" in
  Obs.Registry.incr c;
  let h = Obs.Registry.histogram ~registry "lat" in
  Obs.Registry.observe h 1.5;
  let csv = Obs.Registry.to_csv_string registry in
  checkb "header" true (contains csv "name,labels,type,field,value");
  checkb "counter row" true (contains csv "hits,node=a,counter,value,1");
  checkb "histogram count row" true (contains csv "lat,,histogram,count,1");
  checkb "histogram bucket row" true (contains csv "lat,,histogram,le_2.0,1")

let json_float_repr () =
  checks "integral" "2.0" (Obs.Json.float_repr 2.0);
  checks "nan is null" "null" (Obs.Json.float_repr Float.nan);
  checks "fractional stable" "0.1" (Obs.Json.float_repr 0.1)

(* A \u escape takes exactly four hex digits; anything else is a typed
   error, never an exception. *)
let json_unicode_escapes () =
  let reads text =
    match Obs.Json.of_string text with
    | Ok (Obs.Json.String s) -> Some s
    | Ok _ | Error _ -> None
  in
  Alcotest.(check (option string)) "four hex digits" (Some "\001A")
    (reads {|"\u0001\u0041"|});
  Alcotest.(check (option string)) "upper-case hex" (Some "\031")
    (reads {|"\u001F"|});
  List.iter
    (fun text ->
      match Obs.Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" text
      | exception e ->
          Alcotest.failf "%s raised %s" text (Printexc.to_string e))
    [ {|"\uZZZZ"|}; {|"\u+123"|}; {|"\u_123"|}; {|"\u12"|}; {|"\u12 x"|} ]

(* --- timeline -------------------------------------------------------- *)

let timeline_merge_stable () =
  let ev at source = Obs.Timeline.event ~at ~source ~kind:"k" [] in
  let merged =
    Obs.Timeline.merge
      [ [ ev 1.0 "first"; ev 2.0 "first" ]; [ ev 1.0 "second"; ev 1.5 "second" ] ]
  in
  Alcotest.(check (list string))
    "time-ordered, producer order on ties"
    [ "first"; "second"; "second"; "first" ]
    (List.map (fun e -> e.Obs.Timeline.source) merged)

let timeline_json () =
  let registry = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry "events" in
  Obs.Registry.incr c;
  let events =
    [ Obs.Timeline.of_snapshot ~at:0.25 (Obs.Registry.snapshot registry) ]
  in
  let json = Obs.Timeline.to_json_string events in
  checkb "format" true (contains json "planp-timeline/1");
  checkb "snapshot embedded" true (contains json "\"events\"");
  checkb "time" true (contains json "0.25")

(* --- determinism over a full simulated run --------------------------- *)

(* The same seeded scenario twice, with a registry reset and fresh
   components in between, must export byte-identical JSON — the property
   the CLI's --metrics-out relies on. *)
let run_once () =
  Obs.Registry.reset Obs.Registry.default;
  let topo = Netsim.Topology.create () in
  let a = Netsim.Topology.add_host topo "a" "10.0.0.1" in
  let r = Netsim.Topology.add_host topo "r" "10.0.0.254" in
  let b = Netsim.Topology.add_host topo "b" "10.0.0.2" in
  ignore (Netsim.Topology.connect ~name:"ar" topo a r);
  ignore (Netsim.Topology.connect ~name:"rb" topo r b);
  Netsim.Topology.compute_routes topo;
  for i = 1 to 10 do
    Netsim.Node.send_udp a ~dst:(Netsim.Node.addr b) ~src_port:(4000 + i)
      ~dst_port:53
      (Netsim.Payload.of_string "probe")
  done;
  Netsim.Topology.run topo;
  Obs.Registry.to_json_string Obs.Registry.default

let export_deterministic () =
  let first = run_once () in
  let second = run_once () in
  checks "byte-identical across identical runs" first second;
  checkb "covers the engine" true (contains first "netsim.engine.events");
  checkb "covers links" true (contains first "netsim.link.tx_packets");
  checkb "covers nodes" true (contains first "netsim.node.delivered")

(* Same property for the deployment plane: an in-band deploy re-run from
   scratch exports the same bytes.  The daemon's verification wall-clock
   gauge is the one wall-clock-dependent metric — it must stay volatile
   (excluded by default) or this breaks. *)
let deploy_run_once () =
  Obs.Registry.reset Obs.Registry.default;
  let topo = Netsim.Topology.create () in
  let ctrl = Netsim.Topology.add_host topo "ctrl" "10.0.0.1" in
  let target = Netsim.Topology.add_host topo "target" "10.0.0.2" in
  ignore (Netsim.Topology.connect ~name:"wire" topo ctrl target);
  Netsim.Topology.compute_routes topo;
  let daemon = Deploy.Daemon.start target () in
  let controller = Deploy.Controller.create ctrl () in
  let outcome = ref None in
  Deploy.Controller.deploy controller
    ~target:(Netsim.Node.addr target)
    ~name:"obs-probe"
    ~source:
      "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + 1, ss))"
    ~on_done:(fun o -> outcome := Some o)
    ();
  Netsim.Topology.run topo;
  (match !outcome with
  | Some (Deploy.Controller.Acked _) -> ()
  | _ -> Alcotest.fail "deploy did not ack");
  ignore (Deploy.Daemon.active_epoch daemon ~name:"obs-probe");
  ( Obs.Registry.to_json_string Obs.Registry.default,
    Obs.Registry.to_json_string ~include_volatile:true Obs.Registry.default )

let deploy_export_deterministic () =
  let first, first_volatile = deploy_run_once () in
  let second, _ = deploy_run_once () in
  checks "byte-identical across identical deploys" first second;
  checkb "controller metrics present" true
    (contains first "deploy.controller.capsules_sent");
  checkb "daemon metrics present" true (contains first "deploy.daemon.installs");
  checkb "epoch gauge present" true
    (contains first "deploy.daemon.epochs_active");
  checkb "wall-clock verify gauge excluded by default" false
    (contains first "deploy.daemon.verify_wall_s");
  checkb "wall-clock verify gauge opt-in" true
    (contains first_volatile "deploy.daemon.verify_wall_s")

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter get-or-create" `Quick counter_get_or_create;
          Alcotest.test_case "counter across domains" `Quick
            counter_concurrent_domains;
          Alcotest.test_case "labels distinguish" `Quick counter_labels_distinguish;
          Alcotest.test_case "label order canonical" `Quick
            counter_label_order_canonical;
          Alcotest.test_case "counter rejects negative" `Quick
            counter_rejects_negative;
          Alcotest.test_case "kind mismatch raises" `Quick kind_mismatch_raises;
          Alcotest.test_case "gauge set and callback" `Quick gauge_set_and_callback;
          Alcotest.test_case "volatile excluded" `Quick
            volatile_excluded_from_exports;
          Alcotest.test_case "histogram buckets" `Quick histogram_buckets;
          Alcotest.test_case "histogram export" `Quick histogram_observe_and_export;
          Alcotest.test_case "reset drops metrics" `Quick reset_drops_metrics;
          Alcotest.test_case "typed reads" `Quick typed_reads;
          Alcotest.test_case "typed reads never create" `Quick
            typed_reads_never_create;
          Alcotest.test_case "typed reads wrong kind raises" `Quick
            typed_reads_wrong_kind_raises;
        ] );
      ( "export",
        [
          Alcotest.test_case "snapshot sorted" `Quick snapshot_sorted;
          Alcotest.test_case "csv rows" `Quick csv_rows;
          Alcotest.test_case "float repr" `Quick json_float_repr;
          Alcotest.test_case "json unicode escapes" `Quick json_unicode_escapes;
          Alcotest.test_case "timeline merge stable" `Quick timeline_merge_stable;
          Alcotest.test_case "timeline json" `Quick timeline_json;
          Alcotest.test_case "deterministic run export" `Quick export_deterministic;
          Alcotest.test_case "deterministic deploy export" `Quick
            deploy_export_deterministic;
        ] );
    ]
