(* Unit tests for the PLAN-P front end: lexer, parser, types, type checker,
   pretty printer. *)

module Token = Planp.Token
module Lexer = Planp.Lexer
module Parser = Planp.Parser
module Ast = Planp.Ast
module Ptype = Planp.Ptype
module Typecheck = Planp.Typecheck

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let tokens source = List.map fst (Lexer.tokenize source)

(* ---------- lexer ---------- *)

let lex_basic () =
  match tokens "val x : int = 1 + 2" with
  | [ Token.KW_val; Token.IDENT "x"; Token.COLON; Token.IDENT "int"; Token.EQ;
      Token.INT 1; Token.PLUS; Token.INT 2; Token.EOF ] ->
      ()
  | _ -> Alcotest.fail "unexpected token stream"

let lex_counts_eof () =
  (* the previous test pattern-matched 9 tokens but checked 8: EOF included *)
  check "eof included" 9 (List.length (tokens "val x : int = 1 + 2"))

let lex_host_literal () =
  match tokens "131.254.60.81" with
  | [ Token.HOST h; Token.EOF ] ->
      check "packed" ((131 lsl 24) lor (254 lsl 16) lor (60 lsl 8) lor 81) h
  | _ -> Alcotest.fail "host literal not lexed"

let lex_comments () =
  check "line comment" 1 (List.length (tokens "-- nothing here\n"));
  check "block comment" 1 (List.length (tokens "(* hi (* nested *) bye *)"));
  check "code after comment" 2 (List.length (tokens "-- c\nx"))

let lex_strings_chars () =
  (match tokens {|"a\nb"|} with
  | [ Token.STRING "a\nb"; Token.EOF ] -> ()
  | _ -> Alcotest.fail "string escape");
  match tokens "'P'" with
  | [ Token.CHAR 'P'; Token.EOF ] -> ()
  | _ -> Alcotest.fail "char literal"

let lex_operators () =
  match tokens "<> <= >= => = < >" with
  | [ Token.NE; Token.LE; Token.GE; Token.DARROW; Token.EQ; Token.LT;
      Token.GT; Token.EOF ] ->
      ()
  | _ -> Alcotest.fail "operators"

let lex_proj () =
  match tokens "#3" with
  | [ Token.PROJ 3; Token.EOF ] -> ()
  | _ -> Alcotest.fail "projection"

let lex_errors () =
  let fails source =
    match Lexer.tokenize source with
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.failf "lexer accepted %S" source
  in
  fails "\"unterminated";
  fails "'x";
  fails "''";
  fails "1.2.3.999";
  fails "@";
  fails "#x";
  (* Literals past [max_int] are lexer errors, not [Failure]s. *)
  fails "4611686018427387904";
  fails "val big : int = 1234567890123456789012345678901234567890";
  fails "#4611686018427387904";
  fails "10.0.0.4611686018427387904";
  match Lexer.tokenize (string_of_int max_int) with
  | (Token.INT n, _) :: _ -> Alcotest.(check int) "max_int lexes" max_int n
  | _ -> Alcotest.fail "max_int must lex as an integer"

(* ---------- parser ---------- *)

let parse_expr_desc source = (Parser.parse_expr source).Ast.desc

let parser_precedence () =
  (match parse_expr_desc "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, _, { Ast.desc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "mul binds tighter than add");
  (match parse_expr_desc "a orelse b andalso c" with
  | Ast.Binop (Ast.Or, _, { Ast.desc = Ast.Binop (Ast.And, _, _); _ }) -> ()
  | _ -> Alcotest.fail "andalso binds tighter than orelse");
  match parse_expr_desc "1 + 2 = 3" with
  | Ast.Binop (Ast.Eq, { Ast.desc = Ast.Binop (Ast.Add, _, _); _ }, _) -> ()
  | _ -> Alcotest.fail "arith binds tighter than comparison"

let parser_tuple_vs_seq () =
  (match parse_expr_desc "(1, 2, 3)" with
  | Ast.Tuple [ _; _; _ ] -> ()
  | _ -> Alcotest.fail "tuple");
  (match parse_expr_desc "(f(); g(); 3)" with
  | Ast.Seq (_, { Ast.desc = Ast.Seq (_, _); _ }) -> ()
  | _ -> Alcotest.fail "sequence");
  match parse_expr_desc "(1)" with
  | Ast.Int 1 -> ()
  | _ -> Alcotest.fail "grouping"

let parser_let () =
  match parse_expr_desc "let val x : int = 1 val y : int = 2 in x + y end" with
  | Ast.Let ([ b1; b2 ], _) ->
      checks "x" "x" b1.Ast.bind_name;
      checks "y" "y" b2.Ast.bind_name
  | _ -> Alcotest.fail "let bindings"

let parser_try () =
  match parse_expr_desc "try f() handle A => 1, B => 2 end" with
  | Ast.Try (_, [ ("A", _); ("B", _) ]) -> ()
  | _ -> Alcotest.fail "try handlers"

let parser_onremote () =
  match parse_expr_desc "OnRemote(network, p)" with
  | Ast.On_remote ("network", { Ast.desc = Ast.Var "p"; _ }) -> ()
  | _ -> Alcotest.fail "OnRemote"

let parser_projection_chain () =
  match parse_expr_desc "#1 #2 p" with
  | Ast.Proj (1, { Ast.desc = Ast.Proj (2, _); _ }) -> ()
  | _ -> Alcotest.fail "nested projection"

let parser_types () =
  checkb "tuple type" true
    (Ptype.equal
       (Parser.parse_type "ip*tcp*blob")
       (Ptype.Ttuple [ Ptype.Tip; Ptype.Ttcp; Ptype.Tblob ]));
  checkb "hash type" true
    (Ptype.equal
       (Parser.parse_type "(host*int, int) hash_table")
       (Ptype.Thash (Ptype.Ttuple [ Ptype.Thost; Ptype.Tint ], Ptype.Tint)));
  checkb "grouping" true
    (Ptype.equal (Parser.parse_type "(int)") Ptype.Tint)

let parser_channel () =
  let program =
    Parser.parse
      {|channel network(ps : int, ss : unit, p : ip*tcp*blob)
        initstate () is (OnRemote(network, p); (ps, ss))|}
  in
  match Ast.channels program with
  | [ chan ] ->
      checks "name" "network" chan.Ast.chan_name;
      checkb "initstate" true (Option.is_some chan.Ast.initstate);
      checkb "packet type" true (Ptype.is_packet chan.Ast.pkt_type)
  | _ -> Alcotest.fail "channel parse"

let parser_errors () =
  let fails source =
    match Parser.parse source with
    | exception Parser.Error _ -> ()
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.failf "parser accepted %S" source
  in
  fails "val";
  fails "val x = 1";  (* missing type annotation *)
  fails "channel c(ps : int) is ()";  (* channels need three params *)
  fails "let in x end";  (* empty binding list *)
  fails "if x then y";  (* missing else *)
  fails "fun f(x : int) = x";  (* missing return type *)
  fails "val x : int = (1, )";
  fails "val x : (int) hash_table = mkTable(4)"  (* hash needs two args *)

(* ---------- pretty printer ---------- *)

let pretty_roundtrip_sources =
  [
    Asp.Audio_asp.router_program ~iface:1 ();
    Asp.Audio_asp.client_program ();
    Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
      ~servers:("10.3.0.1", "10.3.0.2") ();
    Asp.Mpeg_asp.monitor_program ~server:"10.6.0.1" ();
    Asp.Mpeg_asp.capture_program ();
  ]

(* Strip locations by structural comparison of the printable form. *)
let pretty_roundtrip () =
  List.iter
    (fun source ->
      let ast = Parser.parse source in
      let printed = Planp.Pretty.program_to_string ast in
      let reparsed =
        try Parser.parse printed
        with Parser.Error (m, loc) ->
          Alcotest.failf "reparse failed: %s at %s\n%s" m
            (Planp.Loc.to_string loc) printed
      in
      let printed_again = Planp.Pretty.program_to_string reparsed in
      checks "fixed point" printed printed_again)
    pretty_roundtrip_sources

(* ---------- type checker ---------- *)

let prims =
  Planp_runtime.Prims.install ();
  Planp_runtime.Prim.type_lookup

let accepts source =
  match Typecheck.check ~prims (Parser.parse source) with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "rejected: %s (%s)"
        (Format.asprintf "%a" Typecheck.pp_error e)
        source

let rejects ?substring source =
  match Typecheck.check ~prims (Parser.parse source) with
  | Ok _ -> Alcotest.failf "accepted: %s" source
  | Error e -> (
      match substring with
      | None -> ()
      | Some sub ->
          let message = e.Typecheck.message in
          if
            not
              (List.exists
                 (fun i -> String.length sub <= String.length message - i
                           && String.sub message i (String.length sub) = sub)
                 (List.init (String.length message) Fun.id))
          then Alcotest.failf "error %S does not mention %S" message sub)

let simple_channel body =
  Printf.sprintf
    "channel network(ps : int, ss : int, p : ip*tcp*blob) is %s" body

let tc_good_programs () =
  accepts "val x : int = 1 + 2 * 3";
  accepts "val s : string = itos(42) ^ \"!\"";
  accepts "fun double(n : int) : int = n + n  val x : int = double(21)";
  accepts (simple_channel "(OnRemote(network, p); (ps + 1, ss))");
  accepts
    "exception E\n\
     channel network(ps : int, ss : int, p : ip*udp*blob) is\n\
     try (OnRemote(network, p); (ps, ss)) handle E => (deliver(p); (ps, ss)) end";
  accepts
    "protostate (host, int) hash_table = mkTable(4)\n\
     channel network(ps : (host, int) hash_table, ss : int, p : ip*tcp*blob) is\n\
     (tblSet(ps, ipSrc(#1 p), 1); OnRemote(network, p); (ps, ss))"

let tc_unbound_and_shadowing () =
  rejects ~substring:"unbound" "val x : int = y";
  rejects ~substring:"unknown" "val x : int = notAPrim(1)";
  (* let shadows outward-in *)
  accepts "val x : int = let val x : string = \"s\" val y : int = strlen(x) in y end"

let tc_type_mismatches () =
  rejects ~substring:"expected" "val x : int = true";
  rejects "val x : int = 1 + \"s\"";
  rejects ~substring:"different types" "val b : bool = 1 = \"s\"";
  rejects ~substring:"equality" "val b : bool = stob(\"a\") = stob(\"b\")";
  rejects ~substring:"ordering" "val b : bool = true < false";
  rejects ~substring:"condition" "val x : int = if 1 then 2 else 3";
  rejects ~substring:"branches" "val x : int = if true then 2 else \"s\""

(* A hash table is keyed by [=]: a key type without equality was once
   accepted, and a blob key then matched by the payload's representation
   (flat, sub-view or rope), not by its bytes. Every annotation site now
   rejects it, naming the key type. *)
let tc_table_key_equality () =
  rejects ~substring:"hash_table key type blob"
    "channel network(ps : int, ss : (blob, int) hash_table, p : ip*tcp*blob)\n\
     initstate mkTable(4) is\n\
     (if tblMem(ss, #3 p) then print(\"seen \") else print(\"new \");\n\
     \ tblSet(ss, #3 p, 1); (ps, ss))";
  rejects ~substring:"hash_table key type ip"
    (simple_channel
       "let val t : (ip, int) hash_table = mkTable(4) in (ps, ss) end");
  rejects ~substring:"hash_table key type tcp"
    "fun f(t : (tcp, int) hash_table) : int = 1";
  rejects ~substring:"hash_table key type (int, int) hash_table"
    "fun f(n : int) : ((int, int) hash_table, bool) hash_table = mkTable(n)";
  rejects ~substring:"hash_table key type int*blob"
    "val t : (int, (int*blob, int) hash_table) hash_table = mkTable(2)";
  rejects ~substring:"hash_table key type blob"
    "protostate (blob, int) hash_table = mkTable(4)\n\
     channel network(ps : (blob, int) hash_table, ss : int, p : ip*tcp*blob) is\n\
     (OnRemote(network, p); (ps, ss))";
  accepts
    "channel network(ps : int, ss : ((host*int), int) hash_table, p : ip*tcp*blob)\n\
     initstate mkTable(4) is\n\
     (tblSet(ss, (ipSrc(#1 p), tcpSrc(#2 p)), 1); (ps, ss))";
  accepts "val t : (string*int, blob) hash_table = mkTable(2)"

let tc_sequences () =
  rejects ~substring:"discards" (simple_channel "(1 + 1; (ps, ss))");
  accepts (simple_channel "(print(\"x\"); OnRemote(network, p); (ps, ss))")

let tc_channels () =
  rejects ~substring:"must return"
    "channel network(ps : int, ss : int, p : ip*tcp*blob) is (OnRemote(network, p); ps)";
  rejects ~substring:"headed by ip"
    "channel network(ps : int, ss : int, p : int*int) is (ps, ss)";
  rejects ~substring:"duplicate overload"
    "channel network(ps : int, ss : int, p : ip*tcp*blob) is (OnRemote(network, p); (ps, ss))\n\
     channel network(ps : int, ss : int, p : ip*tcp*blob) is (OnRemote(network, p); (ps, ss))";
  rejects ~substring:"disagrees"
    "channel network(ps : int, ss : int, p : ip*tcp*blob) is (OnRemote(network, p); (ps, ss))\n\
     channel network(ps : bool, ss : int, p : ip*udp*blob) is (OnRemote(network, p); (ps, ss))";
  (* overloads with distinct packet types are fine *)
  accepts
    "channel network(ps : int, ss : int, p : ip*tcp*char*int) is (OnRemote(network, p); (ps, ss))\n\
     channel network(ps : int, ss : int, p : ip*tcp*char*bool) is (OnRemote(network, p); (ps, ss))"

let tc_onremote () =
  rejects ~substring:"unknown channel"
    (simple_channel "(OnRemote(nowhere, p); (ps, ss))");
  rejects ~substring:"not a packet"
    (simple_channel "(OnRemote(network, 1 + 1); (ps, ss))");
  (* user channel with matching overload *)
  accepts
    "channel extra(ps : int, ss : int, p : ip*udp*int) is (deliver(p); (ps, ss))\n\
     channel network(ps : int, ss : int, p : ip*udp*blob) is\n\
     (OnRemote(extra, (#1 p, #2 p, 42)); (ps, ss))";
  rejects ~substring:"no overload"
    "channel extra(ps : int, ss : int, p : ip*udp*int) is (deliver(p); (ps, ss))\n\
     channel network(ps : int, ss : int, p : ip*udp*blob) is\n\
     (OnRemote(extra, (#1 p, #2 p, true)); (ps, ss))"

let tc_exceptions () =
  rejects ~substring:"undeclared" "val x : int = try 1 handle Nope => 2 end";
  rejects ~substring:"undeclared"
    (simple_channel "(raise Nope; (ps, ss))");
  (* a body raising on every path is rejected for channels *)
  rejects ~substring:"every path"
    "exception E\nchannel network(ps : int, ss : int, p : ip*tcp*blob) is raise E";
  (* raise adapts to any expected type in one branch *)
  accepts
    "exception E\nfun f(b : bool) : int = if b then 1 else raise E"

let tc_functions () =
  (* recursion is impossible: the function is not in scope in its own body *)
  rejects ~substring:"unknown" "fun f(n : int) : int = f(n)";
  rejects ~substring:"unknown" "fun f(n : int) : int = g(n)\nfun g(n : int) : int = n";
  rejects ~substring:"expects 2"
    "fun add(a : int, b : int) : int = a + b\nval x : int = add(1)";
  rejects ~substring:"duplicate function"
    "fun f(n : int) : int = n\nfun f(n : int) : int = n"

let tc_protostate () =
  rejects ~substring:"multiple protostate"
    "protostate int = 0\nprotostate int = 1";
  rejects ~substring:"explicit protostate"
    "channel network(ps : (int, int) hash_table, ss : int, p : ip*tcp*blob) is (deliver(p); (ps, ss))";
  rejects ~substring:"initializer"
    "protostate int = true";
  accepts
    "protostate host*int = (0.0.0.0, 0)\n\
     channel network(ps : host*int, ss : int, p : ip*udp*blob) is (deliver(p); (ps, ss))"

let tc_initstate () =
  rejects ~substring:"needs an initstate"
    "channel network(ps : int, ss : (int, int) hash_table, p : ip*tcp*blob) is (deliver(p); (ps, ss))";
  accepts
    "channel network(ps : int, ss : (int, int) hash_table, p : ip*tcp*blob)\n\
     initstate mkTable(8) is (deliver(p); (ps, ss))"

let tc_table_typing () =
  rejects ~substring:"does not match"
    "channel network(ps : int, ss : (int, int) hash_table, p : ip*tcp*blob)\n\
     initstate mkTable(8) is (tblSet(ss, true, 1); deliver(p); (ps, ss))";
  rejects ~substring:"does not match"
    "channel network(ps : int, ss : (int, int) hash_table, p : ip*tcp*blob)\n\
     initstate mkTable(8) is (tblSet(ss, 1, true); deliver(p); (ps, ss))"

let tc_paper_fragment () =
  (* A faithful transcription of the paper's Fig. 2 fragment (completed). *)
  accepts
    {|
fun getSetS(src : host, dst : host, port : int,
            ss : (host*int, int) hash_table, ps : int) : int =
  let
    val key : host*int = (src, port)
  in
    if tblMem(ss, key) then tblGet(ss, key, 0)
    else
      let val chosen : int = ps mod 2 in
        (tblSet(ss, key, chosen); chosen)
      end
  end

channel network(ps : int, ss : (host*int, int) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let
    val iph : ip = #1 p
    val tcph : tcp = #2 p
    val body : blob = #3 p
  in
    if tcpDst(tcph) = 80 then
      let
        val con : int = getSetS(ipSrc(iph), ipDst(iph), tcpSrc(tcph), ss, ps)
      in
        if con = 0 then
          (OnRemote(network, (ipDestSet(iph, 131.254.60.81), tcph, body));
           (con, ss))
        else
          (OnRemote(network, (ipDestSet(iph, 131.254.60.109), tcph, body));
           (con, ss))
      end
    else
      (OnRemote(network, p); (ps, ss))
  end
|}

let tc_line_count () =
  check "counts code lines" 2 (Ast.line_count "val x : int = 1\n-- comment\n\nval y : int = 2")

let () =
  Alcotest.run "planp-lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick lex_counts_eof;
          Alcotest.test_case "token kinds" `Quick lex_basic;
          Alcotest.test_case "host literal" `Quick lex_host_literal;
          Alcotest.test_case "comments" `Quick lex_comments;
          Alcotest.test_case "strings and chars" `Quick lex_strings_chars;
          Alcotest.test_case "operators" `Quick lex_operators;
          Alcotest.test_case "projection" `Quick lex_proj;
          Alcotest.test_case "errors" `Quick lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick parser_precedence;
          Alcotest.test_case "tuple vs sequence" `Quick parser_tuple_vs_seq;
          Alcotest.test_case "let" `Quick parser_let;
          Alcotest.test_case "try" `Quick parser_try;
          Alcotest.test_case "OnRemote" `Quick parser_onremote;
          Alcotest.test_case "projection chain" `Quick parser_projection_chain;
          Alcotest.test_case "types" `Quick parser_types;
          Alcotest.test_case "channel" `Quick parser_channel;
          Alcotest.test_case "errors" `Quick parser_errors;
        ] );
      ( "pretty",
        [ Alcotest.test_case "roundtrip on bundled ASPs" `Quick pretty_roundtrip ] );
      ( "typecheck",
        [
          Alcotest.test_case "good programs" `Quick tc_good_programs;
          Alcotest.test_case "unbound/shadowing" `Quick tc_unbound_and_shadowing;
          Alcotest.test_case "type mismatches" `Quick tc_type_mismatches;
          Alcotest.test_case "sequences" `Quick tc_sequences;
          Alcotest.test_case "channels" `Quick tc_channels;
          Alcotest.test_case "OnRemote" `Quick tc_onremote;
          Alcotest.test_case "exceptions" `Quick tc_exceptions;
          Alcotest.test_case "functions" `Quick tc_functions;
          Alcotest.test_case "protostate" `Quick tc_protostate;
          Alcotest.test_case "initstate" `Quick tc_initstate;
          Alcotest.test_case "table typing" `Quick tc_table_typing;
          Alcotest.test_case "paper Fig. 2 fragment" `Quick tc_paper_fragment;
          Alcotest.test_case "line count" `Quick tc_line_count;
          Alcotest.test_case "table keys need equality" `Quick tc_table_key_equality;
        ] );
    ]
