exception Error of string * Loc.t

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* position of the beginning of the current line *)
}

let loc st = Loc.make ~line:st.line ~col:(st.pos - st.bol + 1)
let fail st message = raise (Error (message, loc st))
let at_end st = st.pos >= String.length st.src
let peek st = if at_end st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if peek st = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_block_comment st depth =
  if at_end st then fail st "unterminated comment"
  else if peek st = '(' && peek2 st = '*' then begin
    advance st;
    advance st;
    skip_block_comment st (depth + 1)
  end
  else if peek st = '*' && peek2 st = ')' then begin
    advance st;
    advance st;
    if depth > 1 then skip_block_comment st (depth - 1)
  end
  else begin
    advance st;
    skip_block_comment st depth
  end

let rec skip_ws st =
  if at_end st then ()
  else
    match peek st with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_ws st
    | '-' when peek2 st = '-' ->
        while (not (at_end st)) && peek st <> '\n' do
          advance st
        done;
        skip_ws st
    | '(' when peek2 st = '*' ->
        advance st;
        advance st;
        skip_block_comment st 1;
        skip_ws st
    | _ -> ()

let lex_int st =
  let start = st.pos in
  while (not (at_end st)) && is_digit (peek st) do
    advance st
  done;
  match int_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some n -> n
  | None -> fail st "integer literal out of range"

(* An integer followed by ".digit" starts a dotted-quad host literal; the
   language has no floating point so there is no ambiguity. *)
let lex_number st =
  let first = lex_int st in
  if peek st = '.' && is_digit (peek2 st) then begin
    let octets = ref [ first ] in
    while peek st = '.' && is_digit (peek2 st) do
      advance st;
      octets := lex_int st :: !octets
    done;
    match List.rev !octets with
    | [ a; b; c; d ] when List.for_all (fun o -> o <= 255) [ a; b; c; d ] ->
        Token.HOST ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)
    | parts ->
        fail st
          (Printf.sprintf "malformed host literal (%d components)"
             (List.length parts))
  end
  else Token.INT first

let lex_string st =
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then fail st "unterminated string literal"
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
          advance st;
          let c =
            match peek st with
            | 'n' -> '\n'
            | 't' -> '\t'
            | '\\' -> '\\'
            | '"' -> '"'
            | other -> fail st (Printf.sprintf "bad escape '\\%c'" other)
          in
          Buffer.add_char buf c;
          advance st;
          go ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

let lex_char st =
  advance st;
  let c =
    match peek st with
    | '\\' ->
        advance st;
        let c =
          match peek st with
          | 'n' -> '\n'
          | 't' -> '\t'
          | '\\' -> '\\'
          | '\'' -> '\''
          | other -> fail st (Printf.sprintf "bad escape '\\%c'" other)
        in
        c
    | '\'' -> fail st "empty character literal"
    | c -> c
  in
  advance st;
  if peek st <> '\'' then fail st "unterminated character literal";
  advance st;
  Token.CHAR c

let lex_ident st =
  let start = st.pos in
  while (not (at_end st)) && is_ident_char (peek st) do
    advance st
  done;
  let word = String.sub st.src start (st.pos - start) in
  match Token.keyword word with Some kw -> kw | None -> Token.IDENT word

let next_token st =
  skip_ws st;
  let token_loc = loc st in
  if at_end st then (Token.EOF, token_loc)
  else
    let token =
      match peek st with
      | c when is_digit c -> lex_number st
      | c when is_ident_start c -> lex_ident st
      | '"' -> lex_string st
      | '\'' -> lex_char st
      | '#' ->
          advance st;
          if is_digit (peek st) then Token.PROJ (lex_int st)
          else fail st "expected digit after '#'"
      | '(' ->
          advance st;
          Token.LPAREN
      | ')' ->
          advance st;
          Token.RPAREN
      | ',' ->
          advance st;
          Token.COMMA
      | ';' ->
          advance st;
          Token.SEMI
      | ':' ->
          advance st;
          Token.COLON
      | '*' ->
          advance st;
          Token.STAR
      | '+' ->
          advance st;
          Token.PLUS
      | '-' ->
          advance st;
          Token.MINUS
      | '/' ->
          advance st;
          Token.SLASH
      | '^' ->
          advance st;
          Token.CARET
      | '=' ->
          advance st;
          if peek st = '>' then begin
            advance st;
            Token.DARROW
          end
          else Token.EQ
      | '<' ->
          advance st;
          if peek st = '>' then begin
            advance st;
            Token.NE
          end
          else if peek st = '=' then begin
            advance st;
            Token.LE
          end
          else Token.LT
      | '>' ->
          advance st;
          if peek st = '=' then begin
            advance st;
            Token.GE
          end
          else Token.GT
      | c -> fail st (Printf.sprintf "unexpected character %C" c)
    in
    (token, token_loc)

let tokenize source =
  let st = { src = source; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    let token, token_loc = next_token st in
    let acc = (token, token_loc) :: acc in
    match token with Token.EOF -> List.rev acc | _ -> go acc
  in
  go []
