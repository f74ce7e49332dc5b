module Engine = Netsim.Engine
module Addr = Netsim.Addr
module Controller = Deploy.Controller

type variant = { v_source : string; v_authenticated : bool }

type deploy_env = {
  de_controller : Controller.t;
  de_backend : string;
  de_targets_of : string -> Addr.t list;
  de_variant_of : program:string -> variant:string -> variant option;
  de_concurrency : int;
}

(* Consecutive NAKs from one node before the plane benches it. *)
let nak_quarantine = 3

type event = {
  ev_at : float;
  ev_rule : string;
  ev_what : string;
  ev_note : string;
}

type stats = {
  st_ticks : int;
  st_fired : int;
  st_swaps : int;
  st_failed_swaps : int;
  st_undeploys : int;
  st_retunes : int;
  st_escalations : int;
  st_guard_checks : int;
  st_rollbacks : int;
  st_partial_rollbacks : int;
  st_node_quarantines : int;
  st_events : event list;
}

(* Per-rule evaluation state: when the predicate started holding
   continuously ([rs_since] < 0 when it does not hold) and when the rule
   last fired (for the cooldown). *)
type rule_state = {
  rs_rule : Policy.rule;
  rs_fired : Obs.Registry.counter;
  mutable rs_since : float;
  mutable rs_last_fired : float;
}

type t = {
  engine : Engine.t;
  policy : Policy.t;
  monitor : Monitor.t option;
  env : deploy_env option;
  resolve : string -> Signal.t; (* arm-time validated *)
  on_retune : param:string -> value:float -> unit;
  on_escalate : reason:string -> unit;
  on_swap : program:string -> variant:string -> unit;
  rule_states : rule_state list;
  mutable active : (string * string) list; (* program -> live variant *)
  mutable in_flight : string list; (* programs with an op or guard open *)
  mutable quarantined : (string * string) list; (* rolled-back variants *)
  (* Fleet health: consecutive NAKs per node, and the nodes benched for
     the rest of the run after [nak_quarantine] of them in a row. *)
  mutable node_naks : (Addr.t * int) list;
  mutable quarantined_nodes : Addr.t list;
  mutable events : event list; (* reverse chronological *)
  mutable fired : int;
  m_swaps_acked : Obs.Registry.counter;
  m_swaps_failed : Obs.Registry.counter;
  m_undeploys : Obs.Registry.counter;
  m_retunes : Obs.Registry.counter;
  m_escalations : Obs.Registry.counter;
  m_guard_checks : Obs.Registry.counter;
  m_guard_regressions : Obs.Registry.counter;
  m_rollbacks : Obs.Registry.counter;
  m_fleet_rollouts : Obs.Registry.counter;
  m_fleet_targets_acked : Obs.Registry.counter;
  m_fleet_targets_failed : Obs.Registry.counter;
  m_fleet_partial_rollbacks : Obs.Registry.counter;
  m_fleet_node_quarantines : Obs.Registry.counter;
  mutable n_swaps : int;
  mutable n_failed_swaps : int;
  mutable n_undeploys : int;
  mutable n_retunes : int;
  mutable n_escalations : int;
  mutable n_guard_checks : int;
  mutable n_rollbacks : int;
  mutable n_partial_rollbacks : int;
  mutable n_node_quarantines : int;
}

(* The engine decisions are timed and guard windows scheduled on: the
   controller node's, read at call time. Stage ACKs run on the partition
   that owns the controller, which in a partitioned run need not be
   partition 0. *)
let clock t =
  match t.env with
  | Some env -> Netsim.Node.engine (Controller.node env.de_controller)
  | None -> t.engine

let record t ~rule ~what ~note =
  t.events <-
    { ev_at = Engine.now (clock t); ev_rule = rule; ev_what = what;
      ev_note = note }
    :: t.events

let rec eval t = function
  | Policy.Cmp { signal; cmp; threshold } -> (
      let value = Signal.value (t.resolve signal) in
      match cmp with
      | Policy.Gt -> value > threshold
      | Policy.Ge -> value >= threshold
      | Policy.Lt -> value < threshold
      | Policy.Le -> value <= threshold)
  | Policy.All predicates -> List.for_all (eval t) predicates

let release t program =
  t.in_flight <- List.filter (fun p -> p <> program) t.in_flight

let node_quarantined t addr = List.exists (Addr.equal addr) t.quarantined_nodes

(* Track per-node NAK streaks from a rollout's per-target outcomes; a
   node that NAKs [nak_quarantine] times in a row is benched for the
   rest of the run (excluded from subsequent fleet operations). *)
let note_target_outcome t ~rule ~program target outcome =
  match outcome with
  | Controller.Acked _ ->
      t.node_naks <- List.filter (fun (a, _) -> not (Addr.equal a target)) t.node_naks
  | Controller.Nakked _ ->
      let streak =
        1
        + (match
             List.find_opt (fun (a, _) -> Addr.equal a target) t.node_naks
           with
          | Some (_, n) -> n
          | None -> 0)
      in
      t.node_naks <-
        (target, streak)
        :: List.filter (fun (a, _) -> not (Addr.equal a target)) t.node_naks;
      if streak >= nak_quarantine && not (node_quarantined t target) then begin
        t.quarantined_nodes <- t.quarantined_nodes @ [ target ];
        t.n_node_quarantines <- t.n_node_quarantines + 1;
        Obs.Registry.incr t.m_fleet_node_quarantines;
        record t ~rule
          ~what:(Printf.sprintf "quarantine node %s" (Addr.to_string target))
          ~note:
            (Printf.sprintf "%d consecutive NAKs on %s" streak program)
      end
  | Controller.Timed_out | Controller.Skipped | Controller.Aborted _ -> ()

let count_acked outcomes =
  List.length
    (List.filter
       (fun (_, outcome) ->
         match outcome with Controller.Acked _ -> true | _ -> false)
       outcomes)

let max_epoch outcomes =
  List.fold_left
    (fun acc (_, outcome) ->
      match outcome with
      | Controller.Acked { epoch; _ } -> max acc epoch
      | _ -> acc)
    0 outcomes

let first_failure outcomes =
  List.find_map
    (fun (_, outcome) ->
      match outcome with
      | Controller.Acked _ -> None
      | outcome -> Some (Controller.outcome_to_string outcome))
    outcomes

(* The guard: [window] seconds after the fleet converges, the KPI must
   be at least [min_ratio] of its pre-swap baseline or every staged node
   is restored to its pre-swap epoch at once ([prior], through
   {!Controller.restore}) and the variant is quarantined for the rest of
   the run. The program stays in-flight until the verdict so no other op
   races the window. *)
let schedule_guard t ~rule ~program ~variant ~previous ~baseline ~prior =
  match t.policy.Policy.guard with
  | None -> release t program
  | Some guard ->
      Engine.schedule_after (clock t) ~delay:guard.Policy.g_window (fun () ->
          t.n_guard_checks <- t.n_guard_checks + 1;
          Obs.Registry.incr t.m_guard_checks;
          let post = Signal.value (t.resolve guard.Policy.g_signal) in
          if post >= guard.Policy.g_min_ratio *. baseline then begin
            record t ~rule ~what:(Printf.sprintf "guard %s" program)
              ~note:
                (Printf.sprintf "pass: %s %.3f >= %.2f x %.3f"
                   guard.Policy.g_signal post guard.Policy.g_min_ratio baseline);
            release t program
          end
          else begin
            Obs.Registry.incr t.m_guard_regressions;
            t.quarantined <- (program, variant) :: t.quarantined;
            record t ~rule ~what:(Printf.sprintf "guard %s" program)
              ~note:
                (Printf.sprintf
                   "regression: %s %.3f < %.2f x %.3f, rolling back"
                   guard.Policy.g_signal post guard.Policy.g_min_ratio baseline);
            let env = Option.get t.env in
            Controller.restore env.de_controller
              ~concurrency:env.de_concurrency ~name:program ~prior
              ~on_done:(fun outcomes ->
                release t program;
                if first_failure outcomes = None then begin
                  t.n_rollbacks <- t.n_rollbacks + 1;
                  Obs.Registry.incr t.m_rollbacks;
                  (* Where no staged node had a prior epoch, the restore
                     undeployed them all and [previous] runs nowhere. *)
                  let rolled_back =
                    List.exists (fun (_, epoch) -> epoch <> None) prior
                  in
                  (match previous with
                  | Some prev when rolled_back ->
                      t.active <-
                        (program, prev) :: List.remove_assoc program t.active
                  | Some _ | None ->
                      t.active <- List.remove_assoc program t.active);
                  record t ~rule
                    ~what:(Printf.sprintf "rollback %s" program)
                    ~note:
                      (if List.length prior = 1 then "ACK"
                       else
                         Printf.sprintf "fleet of %d restored"
                           (List.length prior))
                end
                else
                  record t ~rule
                    ~what:(Printf.sprintf "rollback %s" program)
                    ~note:"failed: a staged node did not acknowledge")
              ()
          end)

let start_swap t rule ~program ~variant =
  let env = Option.get t.env in
  let all = env.de_targets_of program in
  let targets = List.filter (fun a -> not (node_quarantined t a)) all in
  match (all, targets) with
  | [], _ ->
      record t ~rule ~what:(Printf.sprintf "swap %s %s" program variant)
        ~note:"failed: no deploy target for program"
  | _, [] ->
      record t ~rule ~what:(Printf.sprintf "swap %s %s" program variant)
        ~note:"failed: every target is quarantined"
  | _, targets -> (
      match env.de_variant_of ~program ~variant with
      | None ->
          record t ~rule ~what:(Printf.sprintf "swap %s %s" program variant)
            ~note:"failed: unknown variant"
      | Some spec ->
          t.in_flight <- program :: t.in_flight;
          let previous = List.assoc_opt program t.active in
          let baseline =
            match t.policy.Policy.guard with
            | Some guard -> Signal.value (t.resolve guard.Policy.g_signal)
            | None -> 0.0
          in
          let fleet = List.length targets in
          (* Each target's acked epoch just before the swap: what a
             failed guard restores it to. *)
          let prior =
            List.map
              (fun target ->
                ( target,
                  Controller.epoch_of env.de_controller ~target ~name:program
                ))
              targets
          in
          Obs.Registry.incr t.m_fleet_rollouts;
          Controller.rollout env.de_controller ~backend:env.de_backend
            ~authenticated:spec.v_authenticated
            ~concurrency:env.de_concurrency ~on_nak:Controller.Abort
            ~on_target:(fun target outcome ->
              note_target_outcome t ~rule ~program target outcome;
              if fleet > 1 then
                record t ~rule
                  ~what:
                    (Printf.sprintf "stage %s %s @ %s" program variant
                       (Addr.to_string target))
                  ~note:(Controller.outcome_to_string outcome))
            ~targets ~name:program ~source:spec.v_source
            ~on_done:(fun outcomes ->
              let n_acked = count_acked outcomes in
              let n_failed = List.length outcomes - n_acked in
              Obs.Registry.add t.m_fleet_targets_acked n_acked;
              Obs.Registry.add t.m_fleet_targets_failed n_failed;
              if n_failed = 0 then begin
                t.n_swaps <- t.n_swaps + 1;
                Obs.Registry.incr t.m_swaps_acked;
                t.active <-
                  (program, variant) :: List.remove_assoc program t.active;
                record t ~rule
                  ~what:(Printf.sprintf "swap %s %s" program variant)
                  ~note:
                    (if fleet = 1 then
                       Printf.sprintf "acked epoch %d" (max_epoch outcomes)
                     else
                       Printf.sprintf "fleet of %d acked epoch %d" fleet
                         (max_epoch outcomes));
                t.on_swap ~program ~variant;
                schedule_guard t ~rule ~program ~variant ~previous ~baseline
                  ~prior
              end
              else begin
                t.n_failed_swaps <- t.n_failed_swaps + 1;
                Obs.Registry.incr t.m_swaps_failed;
                let failure =
                  Option.value ~default:"unknown" (first_failure outcomes)
                in
                record t ~rule
                  ~what:(Printf.sprintf "swap %s %s" program variant)
                  ~note:
                    (if fleet = 1 then "failed: " ^ failure
                     else
                       Printf.sprintf "failed: %d/%d targets acked (%s)"
                         n_acked fleet failure);
                if n_acked > 0 then begin
                  (* A partial fleet must not stay mixed-epoch: the
                     failed target (a NAK, a timeout or an aborted
                     stream) made the rollout restore the staged nodes
                     before reporting, and the previous variant stays the
                     active one. *)
                  t.n_partial_rollbacks <- t.n_partial_rollbacks + 1;
                  Obs.Registry.incr t.m_fleet_partial_rollbacks;
                  record t ~rule
                    ~what:(Printf.sprintf "restore %s" program)
                    ~note:
                      (Printf.sprintf
                         "%d staged node(s) restored by aborted rollout"
                         n_acked)
                end;
                release t program
              end)
            ())

let start_undeploy t rule ~program =
  let env = Option.get t.env in
  let targets =
    List.filter (fun a -> not (node_quarantined t a)) (env.de_targets_of program)
  in
  match targets with
  | [] ->
      record t ~rule ~what:(Printf.sprintf "undeploy %s" program)
        ~note:"failed: no deploy target for program"
  | targets ->
      t.in_flight <- program :: t.in_flight;
      let fleet = List.length targets in
      (* A restore with no prior epoch anywhere undeploys every target. *)
      Controller.restore env.de_controller ~concurrency:env.de_concurrency
        ~name:program
        ~prior:(List.map (fun target -> (target, None)) targets)
        ~on_done:(fun outcomes ->
          release t program;
          match first_failure outcomes with
          | None ->
              t.n_undeploys <- t.n_undeploys + 1;
              Obs.Registry.incr t.m_undeploys;
              t.active <- List.remove_assoc program t.active;
              record t ~rule
                ~what:(Printf.sprintf "undeploy %s" program)
                ~note:
                  (if fleet = 1 then "ACK"
                   else Printf.sprintf "fleet of %d retired" fleet)
          | Some failure ->
              record t ~rule
                ~what:(Printf.sprintf "undeploy %s" program)
                ~note:failure)
        ()

(* Decide whether a due rule actually does anything. Hysteresis lives
   here: a swap to the variant that is already live (or one that is
   quarantined, or whose program has an operation or guard window open)
   is suppressed without consuming the cooldown, so the rule re-arms
   cheaply on the next tick. *)
let fire t state now =
  let rule = state.rs_rule in
  let commit () =
    state.rs_last_fired <- now;
    t.fired <- t.fired + 1;
    Obs.Registry.incr state.rs_fired
  in
  match rule.Policy.rl_action with
  | Policy.Swap { program; variant } ->
      if
        List.assoc_opt program t.active = Some variant
        || List.mem (program, variant) t.quarantined
        || List.mem program t.in_flight
      then ()
      else begin
        commit ();
        start_swap t rule.Policy.rl_name ~program ~variant
      end
  | Policy.Undeploy { program } ->
      if
        (not (List.mem_assoc program t.active))
        || List.mem program t.in_flight
      then ()
      else begin
        commit ();
        start_undeploy t rule.Policy.rl_name ~program
      end
  | Policy.Retune { param; value } ->
      commit ();
      t.n_retunes <- t.n_retunes + 1;
      Obs.Registry.incr t.m_retunes;
      record t ~rule:rule.Policy.rl_name
        ~what:(Printf.sprintf "retune %s %g" param value)
        ~note:"applied";
      t.on_retune ~param ~value
  | Policy.Escalate { reason } ->
      commit ();
      t.n_escalations <- t.n_escalations + 1;
      Obs.Registry.incr t.m_escalations;
      record t ~rule:rule.Policy.rl_name
        ~what:(Printf.sprintf "escalate %S" reason)
        ~note:"raised";
      t.on_escalate ~reason

let on_tick t ~now =
  List.iter
    (fun state ->
      let rule = state.rs_rule in
      if eval t rule.Policy.rl_pred then begin
        if state.rs_since < 0.0 then state.rs_since <- now;
        if
          now -. state.rs_since >= rule.Policy.rl_hold
          && now -. state.rs_last_fired >= rule.Policy.rl_cooldown
        then fire t state now
      end
      else state.rs_since <- -1.0)
    t.rule_states

let needs_env = function
  | Policy.Swap _ | Policy.Undeploy _ -> true
  | Policy.Retune _ | Policy.Escalate _ -> false

let arm ?(registry = Obs.Registry.default) ?env ?(active = [])
    ?(on_retune = fun ~param:_ ~value:_ -> ())
    ?(on_escalate = fun ~reason:_ -> ())
    ?(on_swap = fun ~program:_ ~variant:_ -> ()) ~par ~until ~signals
    policy =
  (* An empty policy must leave the registry untouched too (golden
     parity): park its never-incremented counters in a private registry. *)
  let counter_registry =
    if Policy.is_empty policy then Obs.Registry.create () else registry
  in
  let counter name =
    Obs.Registry.counter ~registry:counter_registry
      ~help:"adaptation-plane activity" name
  in
  (match env with
  | Some env when env.de_concurrency <= 0 ->
      invalid_arg "Adapt.Plane.arm: de_concurrency must be positive"
  | Some _ | None -> ());
  if
    env = None
    && List.exists
         (fun rule -> needs_env rule.Policy.rl_action)
         policy.Policy.rules
  then
    invalid_arg
      "Adapt.Plane.arm: policy has swap/undeploy actions but no deploy env";
  let monitor, resolve =
    if Policy.is_empty policy then
      ( None,
        fun name ->
          invalid_arg
            (Printf.sprintf "Adapt.Plane: signal %s on an empty policy" name)
      )
    else begin
      let monitor =
        Monitor.create ~registry ~period:policy.Policy.period ~until ()
      in
      let table =
        List.map
          (fun (name, source) ->
            (name, Monitor.watch monitor ~alpha:policy.Policy.alpha ~name source))
          signals
      in
      List.iter
        (fun name ->
          if not (List.mem_assoc name table) then
            invalid_arg
              (Printf.sprintf
                 "Adapt.Plane.arm: policy references signal %s but it is not \
                  wired"
                 name))
        (Policy.signals_referenced policy);
      (Some monitor, fun name -> List.assoc name table)
    end
  in
  let t =
    {
      engine = (Netsim.Par_engine.engines par).(0);
      policy;
      monitor;
      env;
      resolve;
      on_retune;
      on_escalate;
      on_swap;
      rule_states =
        List.map
          (fun rule ->
            {
              rs_rule = rule;
              rs_fired =
                Obs.Registry.counter ~registry
                  ~labels:[ ("rule", rule.Policy.rl_name) ]
                  ~help:"rule firings" "adapt.rules.fired";
              rs_since = -1.0;
              rs_last_fired = neg_infinity;
            })
          policy.Policy.rules;
      active;
      in_flight = [];
      quarantined = [];
      node_naks = [];
      quarantined_nodes = [];
      events = [];
      fired = 0;
      m_swaps_acked = counter "adapt.swaps.acked";
      m_swaps_failed = counter "adapt.swaps.failed";
      m_undeploys = counter "adapt.undeploys";
      m_retunes = counter "adapt.retunes";
      m_escalations = counter "adapt.escalations";
      m_guard_checks = counter "adapt.guard.checks";
      m_guard_regressions = counter "adapt.guard.regressions";
      m_rollbacks = counter "adapt.rollbacks";
      m_fleet_rollouts = counter "adapt.fleet.rollouts";
      m_fleet_targets_acked = counter "adapt.fleet.targets_acked";
      m_fleet_targets_failed = counter "adapt.fleet.targets_failed";
      m_fleet_partial_rollbacks = counter "adapt.fleet.partial_rollbacks";
      m_fleet_node_quarantines = counter "adapt.fleet.node_quarantines";
      n_swaps = 0;
      n_failed_swaps = 0;
      n_undeploys = 0;
      n_retunes = 0;
      n_escalations = 0;
      n_guard_checks = 0;
      n_rollbacks = 0;
      n_partial_rollbacks = 0;
      n_node_quarantines = 0;
    }
  in
  Option.iter
    (fun monitor ->
      Monitor.on_tick monitor (fun ~now -> on_tick t ~now);
      Monitor.start monitor par)
    t.monitor;
  t

let stats t =
  {
    st_ticks = (match t.monitor with Some m -> Monitor.ticks m | None -> 0);
    st_fired = t.fired;
    st_swaps = t.n_swaps;
    st_failed_swaps = t.n_failed_swaps;
    st_undeploys = t.n_undeploys;
    st_retunes = t.n_retunes;
    st_escalations = t.n_escalations;
    st_guard_checks = t.n_guard_checks;
    st_rollbacks = t.n_rollbacks;
    st_partial_rollbacks = t.n_partial_rollbacks;
    st_node_quarantines = t.n_node_quarantines;
    st_events = List.rev t.events;
  }

let events t = List.rev t.events
let active_variant t program = List.assoc_opt program t.active
let quarantined_nodes t = t.quarantined_nodes

let signal_value t name =
  match t.monitor with
  | None -> None
  | Some monitor -> Option.map Signal.value (Monitor.signal monitor name)

let monitor t = t.monitor
