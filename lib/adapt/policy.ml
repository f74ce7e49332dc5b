type cmp = Gt | Ge | Lt | Le

type predicate =
  | Cmp of { signal : string; cmp : cmp; threshold : float }
  | All of predicate list

type action =
  | Swap of { program : string; variant : string }
  | Undeploy of { program : string }
  | Retune of { param : string; value : float }
  | Escalate of { reason : string }

type rule = {
  rl_name : string;
  rl_pred : predicate;
  rl_hold : float;
  rl_cooldown : float;
  rl_action : action;
}

type guard = { g_signal : string; g_window : float; g_min_ratio : float }

type t = {
  period : float;
  alpha : float;
  rules : rule list;
  guard : guard option;
}

let default_period = 0.5
let default_alpha = 0.3

let empty =
  { period = default_period; alpha = default_alpha; rules = []; guard = None }

let is_empty t = t.rules = [] && t.guard = None

let cmp_to_string = function Gt -> ">" | Ge -> ">=" | Lt -> "<" | Le -> "<="

let action_to_string = function
  | Swap { program; variant } -> Printf.sprintf "swap %s %s" program variant
  | Undeploy { program } -> Printf.sprintf "undeploy %s" program
  | Retune { param; value } -> Printf.sprintf "retune %s %g" param value
  | Escalate { reason } -> Printf.sprintf "escalate %S" reason

let rec predicate_signals acc = function
  | Cmp { signal; _ } -> signal :: acc
  | All predicates -> List.fold_left predicate_signals acc predicates

let signals_referenced t =
  let from_rules =
    List.fold_left
      (fun acc rule -> predicate_signals acc rule.rl_pred)
      [] t.rules
  in
  let all =
    match t.guard with
    | Some guard -> guard.g_signal :: from_rules
    | None -> from_rules
  in
  List.sort_uniq String.compare all

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let field = Netsim.Line_format.field
let fail = Netsim.Line_format.fail

(* A number field of rule [rule]: its errors read "rule NAME FIELD: ...". *)
let rule_field kind rule name text =
  try field kind name text
  with Netsim.Line_format.Error message -> fail "rule %s %s" rule message

let cmp_of_token = function
  | ">" -> Gt
  | ">=" -> Ge
  | "<" -> Lt
  | "<=" -> Le
  | token -> fail "expected a comparison (> >= < <=), got %S" token

let strip_quotes s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
  else s

(* when SIG CMP VAL [and SIG CMP VAL]* -> (predicate, rest after clauses).
   A comparison with nan never holds and one with an infinite bound
   ignores its signal, so thresholds are [Finite]. *)
let rec parse_clauses rule acc = function
  | signal :: cmp :: threshold :: rest -> (
      let threshold = rule_field Finite rule signal threshold in
      let clause = Cmp { signal; cmp = cmp_of_token cmp; threshold } in
      match rest with
      | "and" :: rest -> parse_clauses rule (clause :: acc) rest
      | rest -> (List.rev (clause :: acc), rest))
  | _ -> fail "incomplete condition: expected SIGNAL CMP VALUE"

(* A parameter consumer truncating nan or infinity to an int reads 0, so
   retune values are [Finite]. *)
let parse_action rule = function
  | [ "swap"; program; variant ] -> Swap { program; variant }
  | [ "undeploy"; program ] -> Undeploy { program }
  | [ "retune"; param; value ] ->
      Retune { param; value = rule_field Finite rule "retune" value }
  | "escalate" :: (_ :: _ as reason) ->
      Escalate { reason = strip_quotes (String.concat " " reason) }
  | tokens ->
      fail
        "bad action %S: expected swap PROGRAM VARIANT | undeploy PROGRAM | \
         retune PARAM VALUE | escalate REASON"
        (String.concat " " tokens)

let parse_rule tokens =
  let name, tokens =
    match tokens with
    | name :: "when" :: rest
      when String.length name > 1 && String.ends_with ~suffix:":" name ->
        (String.sub name 0 (String.length name - 1), rest)
    | name :: "when" :: rest -> (name, rest)
    | _ -> fail "expected: rule NAME: when ..."
  in
  let predicate, tokens = parse_clauses name [] tokens in
  let hold, tokens =
    match tokens with
    | "for" :: hold :: rest -> (rule_field Duration name "hold" hold, rest)
    | _ -> fail "rule %s: expected 'for HOLD' after the condition" name
  in
  let cooldown, tokens =
    match tokens with
    | "cooldown" :: cooldown :: rest ->
        (rule_field Duration name "cooldown" cooldown, rest)
    | tokens -> (0.0, tokens)
  in
  let action =
    match tokens with
    | "do" :: action -> parse_action name action
    | _ -> fail "rule %s: expected 'do ACTION'" name
  in
  {
    rl_name = name;
    rl_pred = (match predicate with [ p ] -> p | ps -> All ps);
    rl_hold = hold;
    rl_cooldown = cooldown;
    rl_action = action;
  }

let parse_guard = function
  | [ signal; "window"; window; "min-ratio"; ratio ] ->
      let g_window = field Positive "guard window" window in
      let g_min_ratio = field Positive "guard min-ratio" ratio in
      { g_signal = signal; g_window; g_min_ratio }
  | _ -> fail "expected: guard SIGNAL window SECONDS min-ratio RATIO"

let parse_line t = function
  | [ "period"; period ] -> { t with period = field Positive "period" period }
  | [ "alpha"; alpha ] -> { t with alpha = field Factor "alpha" alpha }
  | "rule" :: tokens ->
      let rule = parse_rule tokens in
      if List.exists (fun existing -> existing.rl_name = rule.rl_name) t.rules
      then fail "duplicate rule name %S" rule.rl_name;
      { t with rules = rule :: t.rules }
  | "guard" :: tokens -> (
      match t.guard with
      | Some _ -> fail "duplicate guard"
      | None -> { t with guard = Some (parse_guard tokens) })
  | token :: _ -> fail "unknown directive %S" token
  | [] -> t

let parse text =
  Result.map
    (fun t -> { t with rules = List.rev t.rules })
    (Netsim.Line_format.parse parse_line empty text)
