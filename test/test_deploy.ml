(* Tests for the in-band deployment plane (lib/deploy): capsule codec,
   chunk/reassembly, daemon epoch semantics, controller operations, staged
   rollouts, and end-to-end deployment through a lossy link. *)

module Topology = Netsim.Topology
module Node = Netsim.Node
module Engine = Netsim.Engine
module Payload = Netsim.Payload
module Packet = Netsim.Packet
module Link = Netsim.Link
module Runtime = Planp_runtime.Runtime
module Value = Planp_runtime.Value
module Capsule = Deploy.Capsule
module Daemon = Deploy.Daemon
module Controller = Deploy.Controller

let () = Planp_runtime.Prims.install ()
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* Counts untagged UDP packets in the protocol state; the [step] lets two
   versions of "the same program" be told apart by how fast they count. *)
let counter_asp step =
  Printf.sprintf
    "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + %d, ss))"
    step

(* The verifier cannot prove this terminates globally (unbounded flood), so
   an unauthenticated deployment of it must be NAKed. *)
let flood_asp =
  "channel flood(ps : unit, ss : unit, p : ip*blob) is\n\
   (OnNeighbor(flood, p); (ps, ss))"

let probe daemon =
  Runtime.inject
    (Daemon.runtime daemon)
    (Packet.udp ~src:1 ~dst:2 ~src_port:9 ~dst_port:9 Payload.empty)

let count_of daemon ~name =
  match Daemon.active_program daemon ~name with
  | Some program -> Value.as_int (Runtime.proto_state program)
  | None -> Alcotest.failf "no active program for %s" name

(* ---------- capsule codec ---------- *)

let roundtrip msg =
  match Capsule.decode (Capsule.encode msg) with
  | Some decoded -> decoded = msg
  | None -> false

let capsule_roundtrip () =
  checkb "manifest" true
    (roundtrip
       (Capsule.Manifest
          {
            program = "audio";
            epoch = 7;
            backend = "jit";
            total_chunks = 3;
            total_bytes = 1200;
            checksum = Capsule.checksum "xyz";
            authenticated = true;
            reply_addr = Netsim.Addr.of_string "10.0.0.9";
            reply_port = 52001;
          }));
  checkb "chunk" true
    (roundtrip
       (Capsule.Chunk { program = "audio"; epoch = 7; index = 2; data = "ab\000c" }));
  checkb "empty chunk" true
    (roundtrip (Capsule.Chunk { program = "p"; epoch = 1; index = 0; data = "" }));
  checkb "undeploy" true
    (roundtrip
       (Capsule.Undeploy
          { program = "p"; epoch = 3; reply_addr = 1; reply_port = 52003 }));
  checkb "rollback" true
    (roundtrip
       (Capsule.Rollback
          { program = "p"; epoch = 4; reply_addr = 1; reply_port = 52003 }));
  checkb "ack" true
    (roundtrip
       (Capsule.Ack
          {
            program = "p";
            epoch = 4;
            signature = Capsule.sign ~secret:"s" ~program:"p" ~epoch:4 ~node:2;
            install_latency_us = 1234;
            note = "activated";
          }));
  checkb "nak" true
    (roundtrip (Capsule.Nak { program = "p"; epoch = 4; reason = "stale" }))

let capsule_decode_garbage () =
  checkb "empty" true (Capsule.decode Payload.empty = None);
  checkb "unknown op" true (Capsule.decode (Payload.of_string "\xff") = None);
  checkb "truncated" true (Capsule.decode (Payload.of_string "\001\000\005ab") = None)

let capsule_signature_binds_fields () =
  let sign = Capsule.sign ~secret:"s" ~program:"p" ~epoch:1 ~node:3 in
  checkb "epoch" true (sign <> Capsule.sign ~secret:"s" ~program:"p" ~epoch:2 ~node:3);
  checkb "node" true (sign <> Capsule.sign ~secret:"s" ~program:"p" ~epoch:1 ~node:4);
  checkb "secret" true (sign <> Capsule.sign ~secret:"t" ~program:"p" ~epoch:1 ~node:3);
  checkb "program" true (sign <> Capsule.sign ~secret:"s" ~program:"q" ~epoch:1 ~node:3)

let capsule_rope_payloads () =
  (* Capsule decode and the checksum pipeline must behave identically when
     the wire payload arrives as a non-compacted rope (slices and pending
     concatenations) instead of one flat string. *)
  let source = String.concat "" (List.init 40 (fun i -> Printf.sprintf "line%d;" i)) in
  let msg =
    Capsule.Manifest
      {
        program = "audio";
        epoch = 9;
        backend = "jit";
        total_chunks = 2;
        total_bytes = String.length source;
        checksum = Capsule.checksum source;
        authenticated = false;
        reply_addr = Netsim.Addr.of_string "10.0.0.9";
        reply_port = 52001;
      }
  in
  let wire = Payload.to_string (Capsule.encode msg) in
  let n = String.length wire in
  let as_rope =
    Payload.concat
      [ Payload.of_string (String.sub wire 0 3);
        Payload.sub (Payload.of_string ("pad" ^ wire ^ "pad")) ~pos:6 ~len:(n - 3) ]
  in
  checkb "rope decode" true (Capsule.decode as_rope = Some msg);
  let as_slice =
    Payload.sub (Payload.of_string ("XY" ^ wire)) ~pos:2 ~len:n
  in
  checkb "slice decode" true (Capsule.decode as_slice = Some msg);
  (* the declared checksum still matches after reassembly from chunks *)
  let chunks = Capsule.chunk ~chunk_size:17 source in
  let r =
    Capsule.Reassembly.create
      ~total_chunks:(List.length chunks)
      ~total_bytes:(String.length source)
      ~checksum:(Capsule.checksum source)
  in
  List.iteri
    (fun index data ->
      match Capsule.Reassembly.add r ~index data with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    chunks;
  match Capsule.Reassembly.source r with
  | Ok s -> checks "reassembled source" source s
  | Error e -> Alcotest.fail e

(* ---------- chunk / reassemble ---------- *)

let chunk_reassemble_roundtrip =
  QCheck.Test.make ~name:"chunk/reassemble round-trips under any arrival order"
    ~count:100
    QCheck.(
      triple (string_of_size Gen.(0 -- 2000)) (int_range 1 97) (int_range 0 9999))
    (fun (source, chunk_size, seed) ->
      let chunks = Capsule.chunk ~chunk_size source in
      let n = List.length chunks in
      let order = Array.init n (fun i -> i) in
      (* deterministic shuffle from the seed *)
      let state = ref seed in
      let next bound =
        state := ((!state * 1103515245) + 12345) land 0x3fffffff;
        !state mod bound
      in
      for i = n - 1 downto 1 do
        let j = next (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      let indexed = Array.of_list chunks in
      let r =
        Capsule.Reassembly.create ~total_chunks:n
          ~total_bytes:(String.length source)
          ~checksum:(Capsule.checksum source)
      in
      Array.iter
        (fun i ->
          match Capsule.Reassembly.add r ~index:i indexed.(i) with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "add: %s" e)
        order;
      Capsule.Reassembly.complete r
      && Capsule.Reassembly.source r = Ok source)

let reassembly_rejects () =
  let r =
    Capsule.Reassembly.create ~total_chunks:2 ~total_bytes:4
      ~checksum:(Capsule.checksum "abcd")
  in
  checkb "first add" true (Capsule.Reassembly.add r ~index:0 "ab" = Ok ());
  checkb "duplicate" true
    (match Capsule.Reassembly.add r ~index:0 "ab" with
    | Error _ -> true
    | Ok () -> false);
  checkb "out of range" true
    (match Capsule.Reassembly.add r ~index:5 "zz" with
    | Error _ -> true
    | Ok () -> false);
  checkb "incomplete source" true
    (match Capsule.Reassembly.source r with Error _ -> true | Ok _ -> false);
  checkb "second add" true (Capsule.Reassembly.add r ~index:1 "XY" = Ok ());
  checkb "checksum mismatch" true
    (Capsule.Reassembly.source r = Error "checksum mismatch")

(* ---------- topology helpers ---------- *)

let two_nodes () =
  let topo = Topology.create () in
  let ctl = Topology.add_host topo "ctl" "10.0.0.1" in
  let target = Topology.add_host topo "target" "10.0.0.2" in
  let link = Topology.connect topo ctl target in
  Topology.compute_routes topo;
  let daemon = Daemon.start target () in
  let controller = Controller.create ctl () in
  (topo, controller, daemon, link)

let deploy_sync ?backend ?authenticated ?epoch ?timeout ~run topo controller
    ~target ~name ~source () =
  let result = ref None in
  Controller.deploy ?backend ?authenticated ?epoch ?timeout controller ~target
    ~name ~source
    ~on_done:(fun outcome -> result := Some outcome)
    ();
  run topo;
  match !result with
  | Some outcome -> outcome
  | None -> Alcotest.fail "deploy never settled"

let expect_ack = function
  | Controller.Acked { epoch; _ } -> epoch
  | outcome -> Alcotest.failf "expected ACK, got %s" (Controller.outcome_to_string outcome)

let expect_nak = function
  | Controller.Nakked { reason; _ } -> reason
  | outcome -> Alcotest.failf "expected NAK, got %s" (Controller.outcome_to_string outcome)

(* ---------- deploy / hot swap / epochs ---------- *)

let deploy_basic () =
  let topo, controller, daemon, _link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  let outcome =
    deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
      ~source:(counter_asp 1) ()
  in
  check "epoch 1" 1 (expect_ack outcome);
  check "active epoch" 1
    (Option.value ~default:0 (Daemon.active_epoch daemon ~name:"counter"));
  checkb "controller agrees" true
    (Controller.epoch_of controller ~target ~name:"counter" = Some 1);
  check "high water" 1 (Daemon.high_water daemon ~name:"counter");
  probe daemon;
  check "version 1 serving" 1 (count_of daemon ~name:"counter");
  checkb "no previous epoch yet" true
    (Daemon.previous_epoch daemon ~name:"counter" = None)

let deploy_hot_swap () =
  let topo, controller, daemon, _link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
          ~source:(counter_asp 1) ()));
  probe daemon;
  let outcome =
    deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
      ~source:(counter_asp 100) ()
  in
  check "epoch 2" 2 (expect_ack outcome);
  check "previous retained" 1
    (Option.value ~default:0 (Daemon.previous_epoch daemon ~name:"counter"));
  probe daemon;
  (* fresh proto state: the old count does not carry over *)
  check "version 2 serving" 100 (count_of daemon ~name:"counter");
  check "only one program installed" 1
    (List.length (Runtime.installed_programs (Daemon.runtime daemon)))

let deploy_stale_epoch_nak () =
  let topo, controller, daemon, _link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
          ~epoch:5 ~source:(counter_asp 1) ()));
  let outcome =
    deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
      ~epoch:3 ~source:(counter_asp 2) ()
  in
  let reason = expect_nak outcome in
  checkb "names the high water" true
    (reason = "stale epoch 3 (high water 5)");
  check "epoch 5 still active" 5
    (Option.value ~default:0 (Daemon.active_epoch daemon ~name:"counter"));
  probe daemon;
  check "old version still serving" 1 (count_of daemon ~name:"counter")

let deploy_verify_reject () =
  let topo, controller, daemon, _link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
          ~source:(counter_asp 1) ()));
  let outcome =
    deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
      ~source:flood_asp ()
  in
  ignore (expect_nak outcome);
  check "old epoch still active" 1
    (Option.value ~default:0 (Daemon.active_epoch daemon ~name:"counter"));
  probe daemon;
  check "old version still serving" 1 (count_of daemon ~name:"counter");
  (* high water records accepted epochs only: the rejected epoch number
     may be re-shipped once the program is fixed *)
  check "high water unchanged" 1 (Daemon.high_water daemon ~name:"counter")

(* A literal past [max_int] is a parse error the daemon NAKs, not an
   exception that escapes its capsule handler and ends the simulation. *)
let deploy_literal_out_of_range () =
  let topo, controller, daemon, _link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
          ~source:(counter_asp 1) ()));
  let source =
    "channel network(ps : int, ss : int, p : ip*udp*blob) is\n\
     (deliver(p); (ps + 4611686018427387904, ss))"
  in
  let reason =
    expect_nak
      (deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
         ~source ())
  in
  checkb
    (Printf.sprintf "names the literal (%s)" reason)
    true
    (String.starts_with ~prefix:"parse error: integer literal out of range"
       reason);
  check "old epoch still active" 1
    (Option.value ~default:0 (Daemon.active_epoch daemon ~name:"counter"))

let deploy_authenticated_skips_verify () =
  let topo, controller, daemon, _link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  let outcome =
    deploy_sync ~run:Topology.run topo controller ~target ~name:"flood"
      ~authenticated:true ~source:flood_asp ()
  in
  check "privileged path installs" 1 (expect_ack outcome)

let deploy_rollback () =
  let topo, controller, daemon, _link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
          ~source:(counter_asp 1) ()));
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
          ~source:(counter_asp 100) ()));
  let result = ref None in
  Controller.rollback controller ~target ~name:"counter"
    ~on_done:(fun outcome -> result := Some outcome)
    ();
  Topology.run topo;
  (match !result with
  | Some (Controller.Acked { epoch; note; _ }) ->
      check "restored epoch" 1 epoch;
      checks "note" "rolled-back" note
  | Some outcome ->
      Alcotest.failf "rollback: %s" (Controller.outcome_to_string outcome)
  | None -> Alcotest.fail "rollback never settled");
  check "epoch 1 active again" 1
    (Option.value ~default:0 (Daemon.active_epoch daemon ~name:"counter"));
  probe daemon;
  check "version 1 serving again" 1 (count_of daemon ~name:"counter");
  (* rollback does not lower the high-water mark: a redeploy must beat it *)
  checkb "high water preserved" true
    (Daemon.high_water daemon ~name:"counter" >= 2);
  let outcome =
    deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
      ~source:(counter_asp 7) ()
  in
  checkb "next deploy exceeds high water" true (expect_ack outcome > 2)

let deploy_undeploy () =
  let topo, controller, daemon, _link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller ~target ~name:"counter"
          ~source:(counter_asp 1) ()));
  let result = ref None in
  Controller.undeploy controller ~target ~name:"counter"
    ~on_done:(fun outcome -> result := Some outcome)
    ();
  Topology.run topo;
  (match !result with
  | Some (Controller.Acked { note; _ }) -> checks "note" "undeployed" note
  | Some outcome ->
      Alcotest.failf "undeploy: %s" (Controller.outcome_to_string outcome)
  | None -> Alcotest.fail "undeploy never settled");
  checkb "slot empty" true (Daemon.active_epoch daemon ~name:"counter" = None);
  check "nothing installed" 0
    (List.length (Runtime.installed_programs (Daemon.runtime daemon)));
  (* the retired version is the rollback target *)
  let result = ref None in
  Controller.rollback controller ~target ~name:"counter"
    ~on_done:(fun outcome -> result := Some outcome)
    ();
  Topology.run topo;
  (match !result with
  | Some (Controller.Acked { epoch; _ }) -> check "restored" 1 epoch
  | _ -> Alcotest.fail "rollback after undeploy failed");
  probe daemon;
  check "serving again" 1 (count_of daemon ~name:"counter")

let rollback_without_history () =
  let topo, controller, daemon, _link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  ignore daemon;
  let result = ref None in
  Controller.rollback controller ~target ~name:"ghost"
    ~on_done:(fun outcome -> result := Some outcome)
    ();
  Topology.run topo;
  match !result with
  | Some (Controller.Nakked { reason; _ }) ->
      checks "reason" "nothing to roll back to" reason
  | _ -> Alcotest.fail "expected NAK"

(* ---------- loss and flapping ---------- *)

let deploy_through_flapping_link () =
  let topo, controller, daemon, link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  let engine = Topology.engine topo in
  (* cut the cable before the transfer can finish; heal it later *)
  Engine.schedule engine ~at:0.0005 (fun () -> Link.set_up link false);
  Engine.schedule engine ~at:2.0 (fun () -> Link.set_up link true);
  let outcome =
    deploy_sync
      ~run:(fun topo -> Topology.run_until topo ~stop:30.0)
      topo controller ~target ~name:"counter" ~source:(counter_asp 1) ()
  in
  check "delivered after the flap" 1 (expect_ack outcome);
  checkb "flap forced retransmissions" true
    (Obs.Registry.count
       (Obs.Registry.counter
          ~labels:[ ("controller", "ctl") ]
          "deploy.controller.retransmissions")
    > 0)

let epoch_monotonic_under_loss () =
  (* Several deployment rounds racing a flapping link: whatever happens,
     the daemon's high-water mark never decreases and the active epoch is
     always the last one ACKed. *)
  let topo, controller, daemon, link = two_nodes () in
  let target = Node.addr (Daemon.node daemon) in
  let engine = Topology.engine topo in
  let water = ref 0 in
  let monotone = ref true in
  let acked = ref [] in
  for round = 1 to 5 do
    let at = float_of_int (round - 1) *. 10.0 in
    Engine.schedule engine ~at (fun () ->
        Controller.deploy controller ~target ~name:"counter"
          ~source:(counter_asp round) ~timeout:8.0
          ~on_done:(fun outcome ->
            (match outcome with
            | Controller.Acked { epoch; _ } -> acked := epoch :: !acked
            | _ -> ());
            let hw = Daemon.high_water daemon ~name:"counter" in
            if hw < !water then monotone := false;
            water := max !water hw)
          ());
    (* flap mid-round *)
    Engine.schedule engine ~at:(at +. 0.0004) (fun () -> Link.set_up link false);
    Engine.schedule engine ~at:(at +. 1.2) (fun () -> Link.set_up link true)
  done;
  Topology.run_until topo ~stop:120.0;
  checkb "high water monotone" true !monotone;
  checkb "every round eventually acked" true (List.length !acked = 5);
  check "last ack is active" (List.hd !acked)
    (Option.value ~default:0 (Daemon.active_epoch daemon ~name:"counter"))

(* ---------- staged rollout ---------- *)

let rollout_topology n =
  let topo = Topology.create () in
  let ctl = Topology.add_host topo "ctl" "10.0.0.1" in
  let router = Topology.add_host topo "router" "10.0.0.254" in
  ignore (Topology.connect topo ctl router);
  let daemons =
    List.init n (fun i ->
        let host =
          Topology.add_host topo
            (Printf.sprintf "h%d" i)
            (Printf.sprintf "10.0.1.%d" (i + 1))
        in
        ignore (Topology.connect topo router host);
        Daemon.start host ())
  in
  Topology.compute_routes topo;
  (topo, Controller.create ctl (), daemons)

let rollout_all_ack () =
  let topo, controller, daemons = rollout_topology 3 in
  let targets = List.map (fun d -> Node.addr (Daemon.node d)) daemons in
  let result = ref None in
  Controller.rollout controller ~targets ~name:"counter"
    ~source:(counter_asp 1) ~concurrency:2
    ~on_done:(fun outcomes -> result := Some outcomes)
    ();
  Topology.run topo;
  match !result with
  | None -> Alcotest.fail "rollout never finished"
  | Some outcomes ->
      check "one outcome per target" 3 (List.length outcomes);
      checkb "input order" true (List.map fst outcomes = targets);
      List.iter (fun (_, outcome) -> ignore (expect_ack outcome)) outcomes;
      List.iter
        (fun d ->
          check "deployed everywhere" 1
            (Option.value ~default:0 (Daemon.active_epoch d ~name:"counter")))
        daemons

let rollout_abort_on_nak () =
  let topo, controller, daemons = rollout_topology 3 in
  let targets = List.map (fun d -> Node.addr (Daemon.node d)) daemons in
  (* poison the middle target: its high water is already above the
     rollout's epoch, so it NAKs as stale *)
  let middle = List.nth daemons 1 in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller
          ~target:(Node.addr (Daemon.node middle)) ~name:"counter" ~epoch:10
          ~source:(counter_asp 1) ()));
  let result = ref None in
  Controller.rollout controller ~targets ~name:"counter" ~epoch:2
    ~source:(counter_asp 2) ~concurrency:1 ~on_nak:Controller.Abort
    ~on_done:(fun outcomes -> result := Some outcomes)
    ();
  Topology.run topo;
  match !result with
  | None -> Alcotest.fail "rollout never finished"
  | Some outcomes -> (
      match List.map snd outcomes with
      | [ Controller.Acked _; Controller.Nakked _; Controller.Skipped ] -> ()
      | outcomes ->
          Alcotest.failf "unexpected outcomes: %s"
            (String.concat ", " (List.map Controller.outcome_to_string outcomes)))

let rollout_continue_past_nak () =
  let topo, controller, daemons = rollout_topology 3 in
  let targets = List.map (fun d -> Node.addr (Daemon.node d)) daemons in
  let middle = List.nth daemons 1 in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller
          ~target:(Node.addr (Daemon.node middle)) ~name:"counter" ~epoch:10
          ~source:(counter_asp 1) ()));
  let result = ref None in
  Controller.rollout controller ~targets ~name:"counter" ~epoch:2
    ~source:(counter_asp 2) ~concurrency:1 ~on_nak:Controller.Continue
    ~on_done:(fun outcomes -> result := Some outcomes)
    ();
  Topology.run topo;
  match !result with
  | None -> Alcotest.fail "rollout never finished"
  | Some outcomes -> (
      match List.map snd outcomes with
      | [ Controller.Acked _; Controller.Nakked _; Controller.Acked _ ] -> ()
      | outcomes ->
          Alcotest.failf "unexpected outcomes: %s"
            (String.concat ", " (List.map Controller.outcome_to_string outcomes)))

(* An aborted rollout must not leave the already-swapped prefix on the
   new epoch (regression: abort used to stop after skipping the tail,
   stranding the fleet mixed-epoch). A target that was on a prior epoch
   is rolled back to it; a first-install target is undeployed. The
   outcome list still reports each target's original fate. *)
let rollout_abort_restores_prior_epoch () =
  let topo, controller, daemons = rollout_topology 3 in
  let targets = List.map (fun d -> Node.addr (Daemon.node d)) daemons in
  let first = List.nth daemons 0 and middle = List.nth daemons 1 in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller
          ~target:(Node.addr (Daemon.node first))
          ~name:"counter" ~source:(counter_asp 1) ()));
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller
          ~target:(Node.addr (Daemon.node middle))
          ~name:"counter" ~epoch:10 ~source:(counter_asp 1) ()));
  let result = ref None in
  let staged = ref [] in
  Controller.rollout controller ~targets ~name:"counter" ~epoch:2
    ~source:(counter_asp 2) ~concurrency:1 ~on_nak:Controller.Abort
    ~on_target:(fun target outcome -> staged := (target, outcome) :: !staged)
    ~on_done:(fun outcomes -> result := Some outcomes)
    ();
  Topology.run topo;
  (match !result with
  | None -> Alcotest.fail "rollout never finished"
  | Some outcomes -> (
      match List.map snd outcomes with
      | [ Controller.Acked _; Controller.Nakked _; Controller.Skipped ] -> ()
      | outcomes ->
          Alcotest.failf "unexpected outcomes: %s"
            (String.concat ", " (List.map Controller.outcome_to_string outcomes))));
  check "per-target callback saw every stage" 3 (List.length !staged);
  (* The acked head of the fleet is back on its prior epoch... *)
  check "first target restored to epoch 1" 1
    (Option.value ~default:0 (Daemon.active_epoch first ~name:"counter"));
  probe first;
  check "first target serves the restored version" 1
    (count_of first ~name:"counter");
  (* ...and the skipped tail was never touched. *)
  checkb "skipped target still empty" true
    (Daemon.active_epoch (List.nth daemons 2) ~name:"counter" = None)

let rollout_abort_undeploys_first_install () =
  let topo, controller, daemons = rollout_topology 3 in
  let targets = List.map (fun d -> Node.addr (Daemon.node d)) daemons in
  let first = List.nth daemons 0 and middle = List.nth daemons 1 in
  (* Only the middle target is poisoned; the head has no prior epoch, so
     the abort restore must retire its freshly-installed program. *)
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller
          ~target:(Node.addr (Daemon.node middle))
          ~name:"counter" ~epoch:10 ~source:(counter_asp 1) ()));
  let result = ref None in
  Controller.rollout controller ~targets ~name:"counter" ~epoch:2
    ~source:(counter_asp 2) ~concurrency:1 ~on_nak:Controller.Abort
    ~on_done:(fun outcomes -> result := Some outcomes)
    ();
  Topology.run topo;
  (match !result with
  | None -> Alcotest.fail "rollout never finished"
  | Some outcomes -> (
      match List.map snd outcomes with
      | [ Controller.Acked _; Controller.Nakked _; Controller.Skipped ] -> ()
      | outcomes ->
          Alcotest.failf "unexpected outcomes: %s"
            (String.concat ", " (List.map Controller.outcome_to_string outcomes))));
  checkb "first-install head undeployed after abort" true
    (Daemon.active_epoch first ~name:"counter" = None)

(* An undeploy ACK names the retired epoch, but the target then runs
   nothing: an aborted rollout that had reached it must undeploy it
   again rather than roll the retired program back in (regression: the
   controller kept the retired epoch as the target's acked one). *)
let rollout_abort_after_undeploy () =
  let topo, controller, daemons = rollout_topology 2 in
  let targets = List.map (fun d -> Node.addr (Daemon.node d)) daemons in
  let h0 = List.nth daemons 0 and h1 = List.nth daemons 1 in
  let h0_addr = List.nth targets 0 and h1_addr = List.nth targets 1 in
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller ~target:h0_addr
          ~name:"counter" ~source:(counter_asp 1) ()));
  let retired = ref None in
  Controller.undeploy controller ~target:h0_addr ~name:"counter"
    ~on_done:(fun outcome -> retired := Some outcome)
    ();
  Topology.run topo;
  (match !retired with
  | Some outcome -> ignore (expect_ack outcome)
  | None -> Alcotest.fail "undeploy never settled");
  checkb "undeploy ACK clears the acked epoch" true
    (Controller.epoch_of controller ~target:h0_addr ~name:"counter" = None);
  ignore
    (expect_ack
       (deploy_sync ~run:Topology.run topo controller ~target:h1_addr
          ~name:"counter" ~epoch:10 ~source:(counter_asp 1) ()));
  let result = ref None in
  Controller.rollout controller ~targets ~name:"counter" ~epoch:5
    ~source:(counter_asp 2) ~concurrency:1 ~on_nak:Controller.Abort
    ~on_done:(fun outcomes -> result := Some outcomes)
    ();
  Topology.run topo;
  (match !result with
  | None -> Alcotest.fail "rollout never finished"
  | Some outcomes -> (
      match List.map snd outcomes with
      | [ Controller.Acked _; Controller.Nakked _ ] -> ()
      | outcomes ->
          Alcotest.failf "unexpected outcomes: %s"
            (String.concat ", " (List.map Controller.outcome_to_string outcomes))));
  checkb "retired target runs nothing after the abort" true
    (Daemon.active_epoch h0 ~name:"counter" = None);
  check "poisoned target untouched" 10
    (Option.value ~default:0 (Daemon.active_epoch h1 ~name:"counter"))

(* A target that times out aborts an [Abort] rollout as a NAK does, so
   the fleet ends on one epoch: the target that ACKed is restored while
   the unreachable one never left the old epoch (regression: only a NAK
   stopped the rollout, leaving h0 on epoch 2 and h1 on epoch 1). *)
let rollout_abort_on_timeout () =
  let topo, controller, daemons = rollout_topology 2 in
  let targets = List.map (fun d -> Node.addr (Daemon.node d)) daemons in
  let h0 = List.nth daemons 0 and h1 = List.nth daemons 1 in
  let baseline = ref None in
  Controller.rollout controller ~targets ~name:"counter"
    ~source:(counter_asp 1)
    ~on_done:(fun outcomes -> baseline := Some outcomes)
    ();
  Topology.run topo;
  (match !baseline with
  | Some outcomes -> List.iter (fun (_, o) -> ignore (expect_ack o)) outcomes
  | None -> Alcotest.fail "baseline rollout never finished");
  let set_h1_link up =
    List.iter
      (fun (link, a, b) ->
        if a == Daemon.node h1 || b == Daemon.node h1 then Link.set_up link up)
      (Topology.link_endpoints topo)
  in
  set_h1_link false;
  let result = ref None in
  Controller.rollout controller ~targets ~name:"counter"
    ~source:(counter_asp 2) ~concurrency:2 ~on_nak:Controller.Abort
    ~timeout:5.0
    ~on_done:(fun outcomes -> result := Some outcomes)
    ();
  Topology.run topo;
  (match !result with
  | None -> Alcotest.fail "rollout never finished"
  | Some outcomes -> (
      match List.map snd outcomes with
      | [ Controller.Acked { epoch = 2; _ }; Controller.Timed_out ] -> ()
      | outcomes ->
          Alcotest.failf "unexpected outcomes: %s"
            (String.concat ", " (List.map Controller.outcome_to_string outcomes))));
  check "acked target restored to epoch 1" 1
    (Option.value ~default:0 (Daemon.active_epoch h0 ~name:"counter"));
  check "unreachable target still on epoch 1" 1
    (Option.value ~default:0 (Daemon.active_epoch h1 ~name:"counter"));
  (* The deadline closed h1's stream: once the link heals, no capsule of
     the timed-out operation is left to install behind the controller's
     back. *)
  set_h1_link true;
  Topology.run_until topo ~stop:(Engine.now (Topology.engine topo) +. 60.0);
  check "h1 still on epoch 1 after the heal" 1
    (Option.value ~default:0 (Daemon.active_epoch h1 ~name:"counter"));
  check "the controller agrees" 1
    (Option.value ~default:0
       (Controller.epoch_of controller ~target:(List.nth targets 1)
          ~name:"counter"))

(* One restore over mixed priors: a target with a prior epoch is rolled
   back to it, a target without one is undeployed, and the outcomes come
   back in input order. *)
let restore_mixed_priors () =
  let topo, controller, daemons = rollout_topology 3 in
  let targets = List.map (fun d -> Node.addr (Daemon.node d)) daemons in
  let settle outcomes_ref =
    Topology.run topo;
    match !outcomes_ref with
    | None -> Alcotest.fail "fleet operation never finished"
    | Some outcomes -> outcomes
  in
  List.iter
    (fun step ->
      let staged = ref None in
      Controller.rollout controller ~targets ~name:"counter"
        ~source:(counter_asp step) ~concurrency:2
        ~on_done:(fun outcomes -> staged := Some outcomes)
        ();
      List.iter (fun (_, o) -> ignore (expect_ack o)) (settle staged))
    [ 1; 2 ];
  let prior = List.map2 (fun target p -> (target, p)) targets [ Some 1; None; Some 1 ] in
  let restored = ref None in
  Controller.restore controller ~concurrency:1 ~name:"counter" ~prior
    ~on_done:(fun outcomes -> restored := Some outcomes)
    ();
  let outcomes = settle restored in
  checkb "input order" true (List.map fst outcomes = targets);
  Alcotest.(check (list string))
    "rolled back, undeployed, rolled back"
    [ "rolled-back"; "undeployed"; "rolled-back" ]
    (List.map
       (fun (_, o) ->
         match o with
         | Controller.Acked { note; _ } -> note
         | o -> Controller.outcome_to_string o)
       outcomes);
  List.iteri
    (fun i d ->
      if i = 1 then begin
        checkb "no-prior target runs nothing" true
          (Daemon.active_epoch d ~name:"counter" = None);
        checkb "its acked epoch is cleared" true
          (Controller.epoch_of controller ~target:(List.nth targets i)
             ~name:"counter"
          = None)
      end
      else begin
        check "prior target back on epoch 1" 1
          (Option.value ~default:0 (Daemon.active_epoch d ~name:"counter"));
        probe d;
        check "the restored version serves" 1 (count_of d ~name:"counter")
      end)
    daemons

(* ---------- end to end: lossy link, hot swap under traffic ---------- *)

let e2e_lossy_hot_swap_and_rollback () =
  let topo = Topology.create () in
  let ctl = Topology.add_host topo "ctl" "10.0.0.1" in
  let router = Topology.add_host topo "router" "10.0.0.254" in
  let target_node = Topology.add_host topo "edge" "10.0.1.1" in
  ignore (Topology.connect topo ctl router);
  let lossy = Topology.connect topo router target_node in
  Topology.compute_routes topo;
  let daemon = Daemon.start target_node () in
  let controller = Controller.create ctl () in
  let target = Node.addr target_node in
  let engine = Topology.engine topo in
  (* Version 1 in place first. *)
  ignore
    (expect_ack
       (deploy_sync
          ~run:(fun topo -> Topology.run_until topo ~stop:5.0)
          topo controller ~target ~name:"counter" ~source:(counter_asp 1) ()));
  let v1_count = ref 0 in
  probe daemon;
  v1_count := count_of daemon ~name:"counter";
  check "v1 serving before upgrade" 1 !v1_count;
  (* Upgrade to version 2 through a link that flaps mid-transfer. While the
     transfer limps along, version 1 must keep serving. *)
  let mid_epoch = ref (-1) in
  let mid_count = ref (-1) in
  let ack_time = ref nan in
  let upgraded = ref None in
  Engine.schedule engine ~at:10.0 (fun () ->
      Controller.deploy controller ~target ~name:"counter"
        ~source:(counter_asp 100) ~timeout:60.0
        ~on_done:(fun outcome ->
          ack_time := Engine.now engine;
          upgraded := Some outcome)
        ());
  Engine.schedule engine ~at:10.0005 (fun () -> Link.set_up lossy false);
  (* mid-transfer, during the outage: old epoch serving *)
  Engine.schedule engine ~at:11.0 (fun () ->
      mid_epoch :=
        Option.value ~default:(-1) (Daemon.active_epoch daemon ~name:"counter");
      probe daemon;
      mid_count := count_of daemon ~name:"counter");
  Engine.schedule engine ~at:13.0 (fun () -> Link.set_up lossy true);
  Topology.run_until topo ~stop:90.0;
  check "old epoch served during transfer" 1 !mid_epoch;
  check "old version counted the probe" 2 !mid_count;
  (match !upgraded with
  | Some (Controller.Acked { epoch; _ }) -> check "new epoch" 2 epoch
  | Some outcome ->
      Alcotest.failf "upgrade: %s" (Controller.outcome_to_string outcome)
  | None -> Alcotest.fail "upgrade never settled");
  checkb "ack arrived after the link healed" true (!ack_time > 13.0);
  check "new epoch active after ack" 2
    (Option.value ~default:0 (Daemon.active_epoch daemon ~name:"counter"));
  probe daemon;
  check "new version serving" 100 (count_of daemon ~name:"counter");
  (* A verify-rejected capsule must not dethrone version 2... *)
  ignore
    (expect_nak
       (deploy_sync
          ~run:(fun topo -> Topology.run_until topo ~stop:200.0)
          topo controller ~target ~name:"counter" ~source:flood_asp ()));
  check "still on epoch 2" 2
    (Option.value ~default:0 (Daemon.active_epoch daemon ~name:"counter"));
  (* ...and the operator can still fall back to version 1 explicitly. *)
  let rolled = ref None in
  Controller.rollback controller ~target ~name:"counter"
    ~on_done:(fun outcome -> rolled := Some outcome)
    ();
  Topology.run_until topo ~stop:300.0;
  (match !rolled with
  | Some (Controller.Acked { epoch; _ }) -> check "rolled to v1" 1 epoch
  | _ -> Alcotest.fail "rollback failed");
  probe daemon;
  check "v1 serving after rollback" 1 (count_of daemon ~name:"counter")

(* ---------- daemon protocol-level behavior (via inject) ---------- *)

let daemon_nak_without_transfer () =
  let topo = Topology.create () in
  let host = Topology.add_host topo "h" "10.0.0.1" in
  ignore (Topology.connect topo host (Topology.add_host topo "peer" "10.0.0.2"));
  Topology.compute_routes topo;
  let daemon = Daemon.start host () in
  (* chunks for an unknown transfer are dropped, not crashed on *)
  Daemon.inject daemon
    (Capsule.encode
       (Capsule.Chunk { program = "ghost"; epoch = 9; index = 0; data = "x" }));
  checkb "no slot created" true (Daemon.active_epoch daemon ~name:"ghost" = None);
  (* garbage payloads are ignored *)
  Daemon.inject daemon (Payload.of_string "\xde\xad");
  check "no programs" 0 (List.length (Runtime.installed_programs (Daemon.runtime daemon)))

let suite =
  [
    ( "capsule",
      [
        Alcotest.test_case "codec round-trip" `Quick capsule_roundtrip;
        Alcotest.test_case "decode garbage" `Quick capsule_decode_garbage;
        Alcotest.test_case "signature binds fields" `Quick
          capsule_signature_binds_fields;
        Alcotest.test_case "rope payloads" `Quick capsule_rope_payloads;
        QCheck_alcotest.to_alcotest chunk_reassemble_roundtrip;
        Alcotest.test_case "reassembly rejects" `Quick reassembly_rejects;
      ] );
    ( "deploy",
      [
        Alcotest.test_case "basic deploy" `Quick deploy_basic;
        Alcotest.test_case "hot swap" `Quick deploy_hot_swap;
        Alcotest.test_case "stale epoch NAK" `Quick deploy_stale_epoch_nak;
        Alcotest.test_case "verify reject leaves old serving" `Quick
          deploy_verify_reject;
        Alcotest.test_case "literal out of range NAK" `Quick
          deploy_literal_out_of_range;
        Alcotest.test_case "authenticated skips verify" `Quick
          deploy_authenticated_skips_verify;
        Alcotest.test_case "rollback" `Quick deploy_rollback;
        Alcotest.test_case "undeploy then rollback" `Quick deploy_undeploy;
        Alcotest.test_case "rollback without history" `Quick
          rollback_without_history;
        Alcotest.test_case "daemon ignores strays" `Quick
          daemon_nak_without_transfer;
      ] );
    ( "loss",
      [
        Alcotest.test_case "deploy through flapping link" `Quick
          deploy_through_flapping_link;
        Alcotest.test_case "epoch monotonic under loss" `Quick
          epoch_monotonic_under_loss;
      ] );
    ( "rollout",
      [
        Alcotest.test_case "all ack" `Quick rollout_all_ack;
        Alcotest.test_case "abort on NAK" `Quick rollout_abort_on_nak;
        Alcotest.test_case "continue past NAK" `Quick rollout_continue_past_nak;
        Alcotest.test_case "abort restores prior epoch" `Quick
          rollout_abort_restores_prior_epoch;
        Alcotest.test_case "abort undeploys first install" `Quick
          rollout_abort_undeploys_first_install;
        Alcotest.test_case "abort after undeploy" `Quick
          rollout_abort_after_undeploy;
        Alcotest.test_case "abort on timeout" `Quick rollout_abort_on_timeout;
        Alcotest.test_case "restore mixed priors" `Quick restore_mixed_priors;
      ] );
    ( "e2e",
      [
        Alcotest.test_case "lossy hot swap and rollback" `Quick
          e2e_lossy_hot_swap_and_rollback;
      ] );
  ]

let () = Alcotest.run "deploy" suite
