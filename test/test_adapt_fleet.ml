(* State-machine property test for the fleet adaptation plane: a random
   fleet (size, stage concurrency), a random subset of nodes poisoned so
   they NAK the plane's swap, a random uplink flap window during the
   rollout, and an optional guard regression after convergence. Whatever
   the scenario, the control plane must end with every node running the
   same variant — converged on the new epoch or cleanly rolled back to
   the old one, never mixed — and the plane's own view
   ([active_variant]) must agree with what the daemons actually serve. *)

let () = Planp_runtime.Prims.install ()

module Q = QCheck
module Topology = Netsim.Topology
module Node = Netsim.Node
module Engine = Netsim.Engine
module Link = Netsim.Link
module Payload = Netsim.Payload
module Packet = Netsim.Packet
module Runtime = Planp_runtime.Runtime
module Value = Planp_runtime.Value
module Daemon = Deploy.Daemon
module Controller = Deploy.Controller
module Registry = Obs.Registry
module Monitor = Adapt.Monitor
module Policy = Adapt.Policy
module Plane = Adapt.Plane

(* Two variants of "the same program", told apart by how fast they
   count untagged UDP packets (the test_deploy idiom). *)
let counter_asp step =
  Printf.sprintf
    "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + %d, ss))"
    step

let probe daemon =
  Runtime.inject
    (Daemon.runtime daemon)
    (Packet.udp ~src:1 ~dst:2 ~src_port:9 ~dst_port:9 Payload.empty)

(* The active program's counting step: 1 = old variant, 2 = new. *)
let step_of daemon =
  match Daemon.active_program daemon ~name:"prog" with
  | None -> 0
  | Some program ->
      let before = Value.as_int (Runtime.proto_state program) in
      probe daemon;
      Value.as_int (Runtime.proto_state program) - before

type scenario = {
  fleet : int;  (** nodes the program lives on *)
  concurrency : int;  (** rollout transfers in flight *)
  poisoned : bool list;  (** per node: pre-seeded past the swap epoch *)
  guard_regresses : bool;  (** KPI collapses after convergence *)
  flap : (float * float) option;  (** uplink (start, duration), if any *)
}

let scenario_print sc =
  Printf.sprintf
    "fleet=%d concurrency=%d poisoned=[%s] guard_regresses=%b flap=%s"
    sc.fleet sc.concurrency
    (String.concat ";" (List.map string_of_bool sc.poisoned))
    sc.guard_regresses
    (match sc.flap with
    | None -> "none"
    | Some (at, dur) -> Printf.sprintf "%.2f+%.2f" at dur)

(* Floats derived from small ints so the generator works on any qcheck;
   flap windows stay well under the 60 s deploy timeout, so a downed
   uplink only delays transfers (retries), never times them out. *)
let scenario_gen =
  let open Q.Gen in
  int_range 2 6 >>= fun fleet ->
  int_range 1 (fleet + 1) >>= fun concurrency ->
  list_repeat fleet bool >>= fun poisoned ->
  bool >>= fun guard_regresses ->
  opt (pair (int_range 8 16) (int_range 1 20)) >>= fun flap ->
  let flap =
    Option.map
      (fun (at, dur) -> (float_of_int at /. 10.0, float_of_int dur /. 10.0))
      flap
  in
  return { fleet; concurrency; poisoned; guard_regresses; flap }

let scenario_arb = Q.make ~print:scenario_print scenario_gen

let fail_scenario sc fmt =
  Printf.ksprintf
    (fun msg -> Q.Test.fail_reportf "%s: %s" (scenario_print sc) msg)
    fmt

let run_scenario sc =
  let topo = Topology.create () in
  let ctl = Topology.add_host topo "ctl" "10.0.0.1" in
  let ops = Topology.add_host topo "ops" "10.0.0.2" in
  let router = Topology.add_host topo "router" "10.0.0.254" in
  let uplink = Topology.connect topo ctl router in
  ignore (Topology.connect topo ops router);
  let hosts =
    List.init sc.fleet (fun i ->
        let host =
          Topology.add_host topo
            (Printf.sprintf "h%d" i)
            (Printf.sprintf "10.0.1.%d" (i + 1))
        in
        ignore (Topology.connect topo router host);
        host)
  in
  let daemons = List.map (fun host -> Daemon.start host ()) hosts in
  Topology.compute_routes topo;
  let targets = List.map Node.addr hosts in
  let plane_ctl = Controller.create ctl () in
  let ops_ctl = Controller.create ops () in

  (* Baseline: every node runs v1 at epoch 1 (the plane's controller
     knows these epochs, so an abort can restore them). *)
  let settled = ref None in
  Controller.rollout plane_ctl ~concurrency:sc.fleet ~targets ~name:"prog"
    ~source:(counter_asp 1)
    ~on_done:(fun outcomes -> settled := Some outcomes)
    ();
  Topology.run topo;
  (match !settled with
  | Some outcomes
    when List.for_all
           (fun (_, o) -> match o with Controller.Acked _ -> true | _ -> false)
           outcomes ->
      ()
  | _ -> fail_scenario sc "baseline rollout did not ack everywhere");

  (* Poison: a second controller pushes the SAME behaviour at epoch 100,
     behind the plane controller's back. The daemon's high-water mark
     now makes the plane's swap (epoch 2) NAK as stale — a node that
     refuses the coordinated change without changing what it serves. *)
  List.iteri
    (fun i poison ->
      if poison then begin
        let result = ref None in
        Controller.deploy ops_ctl ~epoch:100
          ~target:(List.nth targets i)
          ~name:"prog" ~source:(counter_asp 1)
          ~on_done:(fun o -> result := Some o)
          ();
        Topology.run topo;
        match !result with
        | Some (Controller.Acked _) -> ()
        | _ -> fail_scenario sc "poison deploy to node %d did not ack" i
      end)
    sc.poisoned;

  let engine = Topology.engine topo in
  let t0 = Engine.now engine in
  let cond = ref 0.0 in
  let kpi = ref 100.0 in
  Engine.schedule engine ~at:(t0 +. 0.6) (fun () -> cond := 1.0);
  if sc.guard_regresses then
    Engine.schedule engine ~at:(t0 +. 1.2) (fun () -> kpi := 5.0);
  (match sc.flap with
  | None -> ()
  | Some (start, duration) ->
      Engine.schedule engine ~at:(t0 +. start) (fun () ->
          Link.set_up uplink false);
      Engine.schedule engine
        ~at:(t0 +. start +. duration)
        (fun () -> Link.set_up uplink true));

  let policy =
    match
      Policy.parse
        "period 0.25\n\
         rule go: when cond > 0 for 0.25 cooldown 60 do swap prog v2\n\
         guard kpi window 0.5 min-ratio 0.9\n"
    with
    | Ok p -> p
    | Error msg -> fail_scenario sc "policy parse: %s" msg
  in
  let env =
    {
      Plane.de_controller = plane_ctl;
      de_backend = "jit";
      de_targets_of = (fun p -> if p = "prog" then targets else []);
      de_variant_of =
        (fun ~program ~variant ->
          if program = "prog" && variant = "v2" then
            Some { Plane.v_source = counter_asp 2; v_authenticated = false }
          else None);
      de_concurrency = sc.concurrency;
    }
  in
  let registry = Registry.create () in
  let par = Result.get_ok (Netsim.Par_engine.of_topology topo ~domains:1) in
  let plane =
    Plane.arm ~registry ~env
      ~active:[ ("prog", "v1") ]
      ~par ~until:(t0 +. 4.0)
      ~signals:
        [
          ("cond", Monitor.Sample (fun () -> !cond));
          ("kpi", Monitor.Sample (fun () -> !kpi));
        ]
      policy
  in
  Netsim.Par_engine.run par;

  (* The scenario's end state is deterministic: the swap sticks exactly
     when nothing NAKed it and the guard saw no regression. *)
  let any_poison = List.exists Fun.id sc.poisoned in
  let expected_variant =
    if (not any_poison) && not sc.guard_regresses then "v2" else "v1"
  in
  let expected_step = if expected_variant = "v2" then 2 else 1 in
  List.iteri
    (fun i daemon ->
      let step = step_of daemon in
      if step <> expected_step then
        fail_scenario sc
          "node %d serves step %d, expected %d — fleet left mixed" i step
          expected_step)
    daemons;
  (match Plane.active_variant plane "prog" with
  | Some v when v = expected_variant -> ()
  | v ->
      fail_scenario sc "plane believes %S is live, expected %S"
        (Option.value ~default:"<none>" v)
        expected_variant);
  let stats = Plane.stats plane in
  if stats.Plane.st_fired <> 1 then
    fail_scenario sc "rule fired %d times, expected 1" stats.Plane.st_fired;
  if any_poison then begin
    if stats.Plane.st_swaps <> 0 then
      fail_scenario sc "swap reported converged despite %s"
        "a poisoned node";
    if stats.Plane.st_failed_swaps <> 1 then
      fail_scenario sc "expected exactly one failed swap, got %d"
        stats.Plane.st_failed_swaps
  end
  else begin
    if stats.Plane.st_swaps <> 1 then
      fail_scenario sc "clean fleet: expected one converged swap, got %d"
        stats.Plane.st_swaps;
    let want_rollbacks = if sc.guard_regresses then 1 else 0 in
    if stats.Plane.st_rollbacks <> want_rollbacks then
      fail_scenario sc "expected %d guard rollbacks, got %d" want_rollbacks
        stats.Plane.st_rollbacks
  end;
  (* One attempt per run: no node can hit the quarantine streak. *)
  if Plane.quarantined_nodes plane <> [] then
    fail_scenario sc "unexpected quarantine after a single attempt";
  true

(* [prop_scale] times the case count when PLANP_PROP_SCALE is set (CI's
   release job sets 10). *)
let prop_scale =
  match Option.bind (Sys.getenv_opt "PLANP_PROP_SCALE") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let fleet_convergence_prop =
  Q.Test.make
    ~name:
      "fleet plane: converged epoch or clean full rollback, never mixed"
    ~count:(200 * prop_scale) scenario_arb run_scenario

let () =
  Alcotest.run "adapt_fleet"
    [
      ( "fleet",
        [ QCheck_alcotest.to_alcotest fleet_convergence_prop ] );
    ]
