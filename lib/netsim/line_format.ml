type _ kind =
  | Finite : float kind
  | Duration : float kind
  | Positive : float kind
  | Probability : float kind
  | Factor : float kind
  | Int : int kind

exception Error of string

let fail fmt = Printf.ksprintf (fun message -> raise (Error message)) fmt

(* NaN passes every range check (each comparison is false), and an
   infinite time is never reached: both are refused before the range. *)
let finite name text =
  match float_of_string_opt text with
  | Some v when Float.is_finite v -> v
  | Some _ -> fail "%s: not a finite number (%s)" name text
  | None -> fail "%s: not a number (%s)" name text

let ranged name text ok range =
  let v = finite name text in
  if ok v then v else fail "%s: %s (%s)" name range text

let field : type a. a kind -> string -> string -> a =
 fun kind name text ->
  match kind with
  | Int -> (
      match int_of_string_opt text with
      | Some n -> n
      | None -> fail "%s: not an integer (%s)" name text)
  | Finite -> finite name text
  | Duration -> ranged name text (fun v -> v >= 0.0) "duration out of [0,inf)"
  | Positive -> ranged name text (fun v -> v > 0.0) "value out of (0,inf)"
  | Probability ->
      ranged name text (fun v -> v >= 0.0 && v <= 1.0) "probability out of [0,1]"
  | Factor ->
      ranged name text (fun v -> v > 0.0 && v <= 1.0) "factor out of (0,1]"

let is_separator = function ' ' | '\t' | '\r' -> true | _ -> false

(* The tokens of [line] before its [#] comment, if any; [go] is reading
   the token [line.[start, i)]. *)
let tokens line =
  let stop =
    Option.value (String.index_opt line '#') ~default:(String.length line)
  in
  let rec go start i acc =
    if i < stop && not (is_separator line.[i]) then go start (i + 1) acc
    else
      let acc =
        if i > start then String.sub line start (i - start) :: acc else acc
      in
      if i >= stop then List.rev acc else go (i + 1) (i + 1) acc
  in
  go 0 0 []

let parse step init text =
  let rec go lineno acc = function
    | [] -> Ok acc
    | line :: rest -> (
        match (match tokens line with [] -> acc | tokens -> step acc tokens) with
        | acc -> go (lineno + 1) acc rest
        | exception Error message ->
            Error (Printf.sprintf "line %d: %s" lineno message))
  in
  go 1 init (String.split_on_char '\n' text)
