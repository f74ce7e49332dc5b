(** Declarative adaptation policies: [when <predicate over signals> for
    <hold time> then <action>] rules with hysteresis and cooldowns, plus
    an optional post-swap KPI guard. The text format is documented in
    [doc/ADAPTATION.md]; each experiment also ships a canned policy built
    through this parser. *)

type cmp = Gt | Ge | Lt | Le

type predicate =
  | Cmp of { signal : string; cmp : cmp; threshold : float }
  | All of predicate list  (** conjunction ([and] in the text format) *)

type action =
  | Swap of { program : string; variant : string }
      (** hot-swap the named program to a variant as a fresh
          {!Deploy.Controller} epoch *)
  | Undeploy of { program : string }
  | Retune of { param : string; value : float }
      (** hand a parameter change to the embedding application *)
  | Escalate of { reason : string }
      (** signal a human / upper layer; no deploy-plane traffic *)

type rule = {
  rl_name : string;
  rl_pred : predicate;
  rl_hold : float;
      (** the predicate must hold continuously this long before firing
          (0 = first tick it holds) *)
  rl_cooldown : float;  (** minimum time between firings of this rule *)
  rl_action : action;
}

(** Post-swap guard: [g_window] seconds after a swap is acknowledged, the
    [g_signal] KPI (higher is better, e.g. goodput) must be at least
    [g_min_ratio] of its pre-swap baseline or the swap is rolled back to
    the previous epoch and the variant quarantined for the run. *)
type guard = { g_signal : string; g_window : float; g_min_ratio : float }

type t = {
  period : float;  (** monitor probe period, seconds *)
  alpha : float;  (** default EWMA weight for every signal *)
  rules : rule list;
  guard : guard option;
}

val empty : t
(** No rules, no guard; arming it schedules nothing (see {!Plane.arm}). *)

val is_empty : t -> bool

val signals_referenced : t -> string list
(** Every signal name the rules and guard test, sorted, deduplicated —
    what {!Plane.arm} validates against the wired signal set. *)

val parse : string -> (t, string) result
(** Parses the policy-file format documented in [doc/ADAPTATION.md]:
    {[
      # comments and blank lines are ignored
      period 0.5
      alpha 0.4
      rule degrade: when drop_rate > 5 for 1.0 cooldown 8 do swap audio-router conservative
      rule recover: when drop_rate < 0.5 and goodput > 40 for 4 do swap audio-router default
      rule shed: when drop_rate > 50 for 2 do undeploy mpeg-filter
      rule tune: when queue_delay > 0.25 for 1 do retune buffer 0.5
      rule bail: when retry_rate > 20 for 5 do escalate "retry storm"
      guard goodput window 4 min-ratio 0.5
    ]}
    Lines and number fields are read by {!Netsim.Line_format}:
    thresholds and retune values are [Finite], holds and cooldowns
    [Duration], period, guard window and min-ratio [Positive], alpha a
    [Factor]. Errors name the line and, for a number, the field, e.g.
    ["line 1: rule x cooldown: not a finite number (inf)"]. *)

val action_to_string : action -> string
val cmp_to_string : cmp -> string
