type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

(* One fixed rendering per double, so identical runs export identical bytes.
   Integral doubles print with a trailing ".0" to stay floats on re-read. *)
let float_repr f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let rec write ~indent buffer json =
  let pad n = Buffer.add_string buffer (String.make n ' ') in
  match json with
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int n -> Buffer.add_string buffer (string_of_int n)
  | Float f -> Buffer.add_string buffer (float_repr f)
  | String s -> escape buffer s
  | List [] -> Buffer.add_string buffer "[]"
  | List items ->
      Buffer.add_string buffer "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buffer ",\n";
          pad (indent + 2);
          write ~indent:(indent + 2) buffer item)
        items;
      Buffer.add_char buffer '\n';
      pad indent;
      Buffer.add_char buffer ']'
  | Obj [] -> Buffer.add_string buffer "{}"
  | Obj fields ->
      Buffer.add_string buffer "{\n";
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_string buffer ",\n";
          pad (indent + 2);
          escape buffer key;
          Buffer.add_string buffer ": ";
          write ~indent:(indent + 2) buffer value)
        fields;
      Buffer.add_char buffer '\n';
      pad indent;
      Buffer.add_char buffer '}'

let to_string json =
  let buffer = Buffer.create 1024 in
  write ~indent:0 buffer json;
  Buffer.add_char buffer '\n';
  Buffer.contents buffer

(* A recursive-descent reader for the same dialect the printer emits (plus
   arbitrary whitespace).  The perf-baseline gate uses it to reload committed
   BENCH_*.json documents without an external dependency. *)
exception Parse of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail message = raise (Parse (Printf.sprintf "%s at byte %d" message !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected '%c', got '%c'" c got)
    | None -> fail (Printf.sprintf "expected '%c', got end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      value)
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char buffer '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buffer '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char buffer '/'; go ()
          | Some 'n' -> advance (); Buffer.add_char buffer '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char buffer '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char buffer '\t'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              (* Exactly four hex digits: [int_of_string] would also take
                 a sign or underscores, and raise on anything else. *)
              let digit i =
                match s.[!pos + i] with
                | '0' .. '9' as c -> Char.code c - Char.code '0'
                | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                | _ -> fail "bad \\u escape"
              in
              let code =
                (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4)
                lor digit 3
              in
              pos := !pos + 4;
              (* The printer only escapes control bytes, so a single byte
                 suffices here. *)
              Buffer.add_char buffer (Char.chr (code land 0xff));
              go ()
          | Some c -> fail (Printf.sprintf "bad escape '\\%c'" c)
          | None -> fail "unterminated escape")
      | Some c ->
          advance ();
          Buffer.add_char buffer c;
          go ()
    in
    go ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, value) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, value) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          List [])
        else
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (value :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (value :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    | None -> fail "unexpected end of input"
  in
  match
    let value = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    value
  with
  | value -> Ok value
  | exception Parse message -> Error message

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
