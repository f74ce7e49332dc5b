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

exception Bad of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let float_tok what token =
  match float_of_string_opt token with
  | Some v -> v
  | None -> fail "%s: expected a number, got %S" what token

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

(* when SIG CMP VAL [and SIG CMP VAL]* -> (predicate, rest after clauses) *)
let rec parse_clauses acc = function
  | signal :: cmp :: threshold :: rest ->
      let threshold = float_tok "threshold" threshold in
      (* Every comparison with nan is false (the rule never fires), and
         one with an infinite bound ignores the signal altogether. *)
      if Float.is_nan threshold then
        fail "signal %s: threshold must be a number, got nan" signal;
      if not (Float.is_finite threshold) then
        fail "signal %s: threshold must be finite, got %g" signal threshold;
      let clause = Cmp { signal; cmp = cmp_of_token cmp; threshold } in
      (match rest with
      | "and" :: rest -> parse_clauses (clause :: acc) rest
      | rest -> (List.rev (clause :: acc), rest))
  | _ -> fail "incomplete condition: expected SIGNAL CMP VALUE"

let parse_action = function
  | [ "swap"; program; variant ] -> Swap { program; variant }
  | [ "undeploy"; program ] -> Undeploy { program }
  | [ "retune"; param; value ] ->
      let value = float_tok "retune value" value in
      (* A parameter consumer truncating nan or infinity to an int reads
         0: a typo would silently zero it. *)
      if not (Float.is_finite value) then
        fail "retune %s: value must be finite, got %g" param value;
      Retune { param; value }
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
    | name :: "when" :: rest ->
        let name =
          if String.length name > 1 && name.[String.length name - 1] = ':' then
            String.sub name 0 (String.length name - 1)
          else name
        in
        (name, rest)
    | _ -> fail "expected: rule NAME: when ..."
  in
  let predicate, tokens = parse_clauses [] tokens in
  let hold, tokens =
    match tokens with
    | "for" :: hold :: rest -> (float_tok "hold time" hold, rest)
    | _ -> fail "rule %s: expected 'for HOLD' after the condition" name
  in
  (* [< 0.0] alone lets nan through (every comparison with nan is false),
     and an infinite hold can never be satisfied. *)
  if not (Float.is_finite hold) || hold < 0.0 then
    fail "rule %s: hold time out of range (must be finite and >= 0)" name;
  let cooldown, tokens =
    match tokens with
    | "cooldown" :: cooldown :: rest -> (float_tok "cooldown" cooldown, rest)
    | tokens -> (0.0, tokens)
  in
  if not (Float.is_finite cooldown) || cooldown < 0.0 then
    fail "rule %s: cooldown out of range (must be finite and >= 0)" name;
  let action =
    match tokens with
    | "do" :: action -> parse_action action
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
      let window = float_tok "guard window" window in
      let ratio = float_tok "guard min-ratio" ratio in
      if not (Float.is_finite window && window > 0.0) then
        fail "guard: window must be finite and positive";
      if not (Float.is_finite ratio && ratio > 0.0) then
        fail "guard: min-ratio must be finite and positive";
      { g_signal = signal; g_window = window; g_min_ratio = ratio }
  | _ -> fail "expected: guard SIGNAL window SECONDS min-ratio RATIO"

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok { acc with rules = List.rev acc.rules }
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let tokens =
          List.filter
            (fun token -> token <> "")
            (String.split_on_char ' '
               (String.map (function '\t' -> ' ' | c -> c) line))
        in
        match
          match tokens with
          | [] -> acc
          | [ "period"; period ] ->
              let period = float_tok "period" period in
              if not (Float.is_finite period && period > 0.0) then
                fail "period must be finite and positive";
              { acc with period }
          | [ "alpha"; alpha ] ->
              let alpha = float_tok "alpha" alpha in
              if not (alpha > 0.0 && alpha <= 1.0) then
                fail "alpha must be in (0, 1]";
              { acc with alpha }
          | "rule" :: tokens ->
              let rule = parse_rule tokens in
              if
                List.exists
                  (fun existing -> existing.rl_name = rule.rl_name)
                  acc.rules
              then fail "duplicate rule name %S" rule.rl_name;
              { acc with rules = rule :: acc.rules }
          | "guard" :: tokens -> (
              match acc.guard with
              | Some _ -> fail "duplicate guard"
              | None -> { acc with guard = Some (parse_guard tokens) })
          | token :: _ -> fail "unknown directive %S" token
        with
        | acc -> go (lineno + 1) acc rest
        | exception Bad msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 empty lines
