type report = {
  local_termination : Local_termination.report;
  global_termination : Global_termination.report;
  delivery : Delivery.report;
  duplication : Duplication.report;
}

let verify program =
  {
    local_termination = Local_termination.analyze program;
    global_termination = Global_termination.analyze program;
    delivery = Delivery.analyze program;
    duplication = Duplication.analyze program;
  }

let passes report =
  report.local_termination.Local_termination.ok
  && (match report.global_termination.Global_termination.verdict with
     | Global_termination.Proved -> true
     | Global_termination.Rejected _ -> false)
  && report.delivery.Delivery.ok
  && report.duplication.Duplication.ok

let first_failure report =
  if not report.local_termination.Local_termination.ok then
    Some
      (Printf.sprintf "local termination: %s"
         (Option.value ~default:"failed"
            report.local_termination.Local_termination.reason))
  else
    match report.global_termination.Global_termination.verdict with
    | Global_termination.Rejected reason ->
        Some (Printf.sprintf "global termination: %s" reason)
    | Global_termination.Proved -> (
        if not report.delivery.Delivery.ok then
          match report.delivery.Delivery.failures with
          | (chan, reason) :: _ ->
              Some (Printf.sprintf "delivery (channel %s): %s" chan reason)
          | [] -> Some "delivery: failed"
        else if not report.duplication.Duplication.ok then
          Some
            (Printf.sprintf "duplication: %s"
               (Option.value ~default:"failed"
                  report.duplication.Duplication.reason))
        else None)

let gate ?(authenticated = false) () checked =
  if authenticated then Ok ()
  else
    let report = verify checked.Planp.Typecheck.program in
    match first_failure report with
    | None -> Ok ()
    | Some reason -> Error reason

let pp fmt report =
  let verdict_string ok = if ok then "PROVED" else "REJECTED" in
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "local termination:  %s (functions: %d, max call depth: %d)@,"
    (verdict_string report.local_termination.Local_termination.ok)
    report.local_termination.Local_termination.function_count
    report.local_termination.Local_termination.max_call_depth;
  (match report.global_termination.Global_termination.verdict with
  | Global_termination.Proved ->
      Format.fprintf fmt
        "global termination: PROVED (states: %d, transitions: %d)@,"
        report.global_termination.Global_termination.states_explored
        report.global_termination.Global_termination.transitions
  | Global_termination.Rejected reason ->
      Format.fprintf fmt "global termination: REJECTED — %s@," reason);
  Format.fprintf fmt "delivery:           %s"
    (verdict_string report.delivery.Delivery.ok);
  List.iter
    (fun (chan, reason) -> Format.fprintf fmt "@,  %s: %s" chan reason)
    report.delivery.Delivery.failures;
  Format.fprintf fmt "@,duplication:        %s (fix-point iterations: %d)"
    (verdict_string report.duplication.Duplication.ok)
    report.duplication.Duplication.iterations;
  (match report.duplication.Duplication.reason with
  | Some reason -> Format.fprintf fmt "@,  %s" reason
  | None -> ());
  Format.fprintf fmt "@]"
