(* Tests for the execution backends: the specializing JIT and the bytecode
   VM, checked against the interpreter (differential testing: the
   interpreter is the reference semantics the JIT was derived from). *)

module Value = Planp_runtime.Value
module World = Planp_runtime.World
module Prim = Planp_runtime.Prim
module Interp = Planp_runtime.Interp
module Backend = Planp_runtime.Backend
module Pkt_codec = Planp_runtime.Pkt_codec
module Specialize = Planp_jit.Specialize
module Bytecomp = Planp_jit.Bytecomp
module Bytecode = Planp_jit.Bytecode
module Vm = Planp_jit.Vm
module Backends = Planp_jit.Backends
module Packet = Netsim.Packet
module Payload = Netsim.Payload

let () = Planp_runtime.Prims.install ()
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* Evaluate one expression on all three engines and insist they agree. *)
let tri_eval ?(globals = []) source =
  let expr = Planp.Parser.parse_expr source in
  let world, _, _ = World.dummy () in
  let reference = Interp.eval_const ~world ~globals expr in
  let jit_code = Specialize.compile_expr ~globals ~params:[] expr in
  let jit = Specialize.run jit_code world [] in
  let unit_ = Bytecomp.compile_expr ~globals ~params:[] expr in
  let vm = Vm.call unit_ ~fn:0 world [||] in
  checkb
    (Printf.sprintf "jit agrees on %s" source)
    true (Value.equal reference jit);
  checkb
    (Printf.sprintf "vm agrees on %s" source)
    true (Value.equal reference vm);
  reference

let expression_corpus =
  [
    "1 + 2 * 3 - 4";
    "(1 + 2) * (3 - 4)";
    "17 mod 5 + 100 / 7";
    "-5 + 3";
    "1 < 2 andalso 2 < 3";
    "1 > 2 orelse 3 >= 3";
    "not (1 = 2)";
    "\"foo\" ^ \"bar\" ^ itos(42)";
    "strlen(substr(\"hello world\", 6, 5))";
    "if 3 > 2 then \"yes\" else \"no\"";
    "let val x : int = 2 val y : int = x * x in x + y end";
    "let val x : int = 1 in let val x : int = x + 1 in x * 10 end end";
    "#2 (1, \"two\", true)";
    "#1 #3 (1, 2, (7, 8))";
    "(print(\"side\"); 9)";
    "try 1 / 0 handle DivByZero => 42 end";
    "try strget(\"abc\", 5) handle OutOfBounds => 'z' end";
    "try (try 1/0 handle OutOfBounds => 1 end) handle DivByZero => 2 end";
    "min(max(3, 7), abs(-5))";
    "charPos('A') + charPos(chr(66))";
    "if even(4) then 10.0.0.1 else 10.0.0.2";
    "htos(10.1.2.3)";
    "false andalso 1 / 0 = 0";
    "true orelse 1 / 0 = 0";
  ]

let backends_agree_on_corpus () =
  List.iter (fun source -> ignore (tri_eval source)) expression_corpus

let backends_agree_with_globals () =
  let globals = [ ("base", Value.Vint 100); ("tag", Value.Vstring "t") ] in
  ignore (tri_eval ~globals "base + 1");
  ignore (tri_eval ~globals "tag ^ itos(base)")

(* Evaluate a program's global values the way Runtime.install does. *)
let globals_of checked =
  let world, _, _ = World.dummy () in
  Interp.eval_globals ~world checked.Planp.Typecheck.program

(* Run a whole program's channel on all three backends; [] when no channel
   of the program treats the packet. *)
let channel_tri_run source packet =
  let checked =
    Planp.Typecheck.check_exn ~prims:Prim.type_lookup (Planp.Parser.parse source)
  in
  let globals = globals_of checked in
  let results =
    List.filter_map
      (fun backend ->
        let compiled = backend.Backend.compile checked ~globals in
        (* pick the first channel that decodes the packet *)
        let rec first = function
          | [] -> None
          | (chan, exec) :: rest -> (
              match Pkt_codec.decode chan.Planp.Ast.pkt_type packet with
              | Some pkt -> Some (chan, exec, pkt)
              | None -> first rest)
        in
        match first compiled with
        | None -> None
        | Some (chan, exec, pkt) ->
            let world, prints, emissions = World.dummy () in
            let ss =
              match chan.Planp.Ast.initstate with
              | Some _ -> Value.Vtable (Value.Table.create 8)
              | None -> Value.default_of chan.Planp.Ast.ss_type
            in
            let ps', _ss' = exec world ~ps:(Value.Vint 0) ~ss ~pkt in
            Some (backend.Backend.backend_name, ps', prints (), emissions ()))
      (Backends.all ())
  in
  results

let bundled_asp_differential () =
  let sources =
    [
      Asp.Audio_asp.client_program ();
      Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
        ~servers:("10.3.0.1", "10.3.0.2") ();
    ]
  in
  let packet =
    Packet.tcp
      ~src:(Netsim.Addr.of_string "192.168.0.9")
      ~dst:(Netsim.Addr.of_string "10.3.0.100")
      ~src_port:1234 ~dst_port:80 (Payload.of_string "GET /index.html")
  in
  let udp_packet =
    Packet.udp
      ~src:(Netsim.Addr.of_string "192.168.0.9")
      ~dst:(Netsim.Addr.of_string "10.3.0.100")
      ~src_port:5004 ~dst_port:5004
      (Planp_runtime.Audio_frame.Wire.synth ~seq:0 ~frames:20 ~phase:0)
  in
  let compared = ref 0 in
  List.iter
    (fun source ->
      List.iter
        (fun packet ->
          match channel_tri_run source packet with
          | [] -> () (* program has no channel for this packet: fine *)
          | [ (_, ps_a, pr_a, em_a); (_, ps_b, pr_b, em_b); (_, ps_c, pr_c, em_c) ]
            ->
              incr compared;
              checkb "states agree" true
                (Value.equal ps_a ps_b && Value.equal ps_b ps_c);
              Alcotest.(check (list string)) "prints agree" pr_a pr_b;
              Alcotest.(check (list string)) "prints agree (vm)" pr_a pr_c;
              check "emission count jit" (List.length em_a) (List.length em_b);
              check "emission count vm" (List.length em_a) (List.length em_c);
              List.iter2
                (fun (_, _, va) (_, _, vb) ->
                  checkb "emitted values agree" true (Value.equal va vb))
                em_a em_b
          | _ -> Alcotest.fail "three backends expected")
        [ packet; udp_packet ])
    sources;
  checkb "at least two comparisons ran" true (!compared >= 2)

(* ---------- the JIT specifically ---------- *)

let jit_with_params () =
  let expr = Planp.Parser.parse_expr "a * 10 + b" in
  let code = Specialize.compile_expr ~globals:[] ~params:[ "a"; "b" ] expr in
  let world, _, _ = World.dummy () in
  check "slots" 42
    (Value.as_int (Specialize.run code world [ Value.Vint 4; Value.Vint 2 ]))

let jit_function_calls () =
  let source =
    "fun sq(n : int) : int = n * n\n\
     fun hyp2(a : int, b : int) : int = sq(a) + sq(b)\n\
     channel network(ps : int, ss : int, p : ip*udp*blob) is\n\
     (deliver(p); (hyp2(3, 4), ss))"
  in
  let packet = Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 Payload.empty in
  match channel_tri_run source packet with
  | (_, ps, _, _) :: rest ->
      check "25" 25 (Value.as_int ps);
      List.iter (fun (_, ps', _, _) -> checkb "same" true (Value.equal ps ps')) rest
  | [] -> Alcotest.fail "no backends"

let codegen_time_positive () =
  let checked =
    Planp.Typecheck.check_exn ~prims:Prim.type_lookup
      (Planp.Parser.parse (Asp.Mpeg_asp.monitor_program ~server:"10.6.0.1" ()))
  in
  let globals = globals_of checked in
  List.iter
    (fun backend ->
      let ms = Backends.codegen_time_ms backend checked ~globals ~repeats:3 in
      checkb
        (backend.Backend.backend_name ^ " codegen time sane")
        true
        (ms >= 0.0 && ms < 1000.0))
    (Backends.all ())

(* A global compiles as an embedded constant, exactly like a literal:
   where a boxed value is wanted (a tuple component) it is the value
   itself, not a fresh [Vint] per use. *)
let global_compiles_like_literal () =
  let words ~globals source =
    let code =
      Specialize.compile_expr ~globals ~params:[] (Planp.Parser.parse_expr source)
    in
    let world, _, _ = World.dummy () in
    ignore (Specialize.run code world []);
    let before = Gc.minor_words () in
    let result = Specialize.run code world [] in
    let words = Gc.minor_words () -. before in
    checkb (source ^ " value") true
      (Value.equal result (Value.Vtuple [| Value.Vint 7; Value.Vint 7 |]));
    words
  in
  let literal = words ~globals:[] "(7, 7)" in
  let global = words ~globals:[ ("g", Value.Vint 7) ] "(g, g)" in
  Alcotest.(check (float 0.0)) "minor words per run" literal global

(* ---------- the bytecode VM specifically ---------- *)

let vm_disassembly () =
  let unit_ =
    Bytecomp.compile_expr ~globals:[] ~params:[]
      (Planp.Parser.parse_expr "if 1 < 2 then 10 else 20")
  in
  let text = Bytecode.disassemble unit_.Bytecode.funcs.(0) in
  checkb "has jump" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains text "jump_if_false");
  checkb "ends with return" true
    (unit_.Bytecode.funcs.(0).Bytecode.code
     |> fun code -> code.(Array.length code - 1) = Bytecode.Return)

let vm_deep_expression () =
  (* A long right-nested concat exercises operand-stack growth. *)
  let source =
    String.concat " ^ " (List.init 100 (fun i -> Printf.sprintf "\"%d\"" i))
  in
  let expected = String.concat "" (List.init 100 string_of_int) in
  checks "deep concat" expected (Value.as_string (tri_eval source))

let vm_try_across_calls () =
  (* An exception raised inside a called function propagates to the caller
     frame's handler. *)
  let source =
    "fun boom(n : int) : int = n / 0\n\
     channel network(ps : int, ss : int, p : ip*udp*blob) is\n\
     (deliver(p); try (boom(1), ss) handle DivByZero => (7, ss) end)"
  in
  let packet = Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 Payload.empty in
  List.iter
    (fun (name, ps, _, _) ->
      checkb (name ^ " handled cross-frame") true (Value.equal (Value.Vint 7) ps))
    (channel_tri_run source packet)

let deep_nesting_stress () =
  (* 400 nested lets: exercises frame sizing in the JIT and locals in the
     VM far beyond what real ASPs use. *)
  let depth = 400 in
  let buffer = Buffer.create 4096 in
  for i = 0 to depth - 1 do
    Buffer.add_string buffer
      (Printf.sprintf "let val x%d : int = %s + 1 in "
         i (if i = 0 then "0" else Printf.sprintf "x%d" (i - 1)))
  done;
  Buffer.add_string buffer (Printf.sprintf "x%d" (depth - 1));
  for _ = 1 to depth do
    Buffer.add_string buffer " end"
  done;
  let expected = Value.Vint depth in
  let result = tri_eval (Buffer.contents buffer) in
  checkb "deep lets" true (Value.equal expected result)

let wide_tuple_projection () =
  (* Regression for tuple projection on wide tuples: fields are stored in an
     array, so #k must be O(1) and index the right slot on every backend. *)
  let tuple_src =
    "(" ^ String.concat ", " (List.init 32 (fun i -> string_of_int (i + 1))) ^ ")"
  in
  List.iter
    (fun k ->
      let v = tri_eval (Printf.sprintf "#%d %s" k tuple_src) in
      check (Printf.sprintf "field %d" k) k (Value.as_int v))
    [ 1; 2; 16; 31; 32 ]

let vm_superinstructions () =
  (* The peephole pass fuses Load/Const + Bin and compare + Jump_if_false;
     the fused forms must show up in the disassembly and compute the same
     results (tri_eval cross-checks against the interpreter). *)
  let disasm source =
    let unit_ =
      Bytecomp.compile_expr ~globals:[] ~params:[]
        (Planp.Parser.parse_expr source)
    in
    Bytecode.disassemble unit_.Bytecode.funcs.(0)
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let load_bin = "let val x : int = 2 in 1 + x end" in
  checkb "load_bin fused" true (contains (disasm load_bin) "load_bin");
  check "load_bin result" 3 (Value.as_int (tri_eval load_bin));
  let const_bin = "if 1 < 2 then 10 else 20" in
  checkb "const_bin fused" true (contains (disasm const_bin) "const_bin");
  check "const_bin result" 10 (Value.as_int (tri_eval const_bin));
  let cmp_jump =
    "let val x : int = 3 val y : int = 10 in if x * 2 < y + 1 then 1 else 2 end"
  in
  checkb "cmp_jump fused" true (contains (disasm cmp_jump) "cmp_jump");
  check "cmp_jump result" 1 (Value.as_int (tri_eval cmp_jump))

let backends_list () =
  check "three backends" 3 (List.length (Backends.all ()));
  checkb "lookup" true (Option.is_some (Backends.by_name "jit"));
  checkb "unknown" true (Option.is_none (Backends.by_name "llvm"))

let () =
  Alcotest.run "planp-jit"
    [
      ( "differential",
        [
          Alcotest.test_case "expression corpus" `Quick backends_agree_on_corpus;
          Alcotest.test_case "globals" `Quick backends_agree_with_globals;
          Alcotest.test_case "bundled ASPs" `Quick bundled_asp_differential;
        ] );
      ( "jit",
        [
          Alcotest.test_case "parameters" `Quick jit_with_params;
          Alcotest.test_case "function calls" `Quick jit_function_calls;
          Alcotest.test_case "codegen time" `Quick codegen_time_positive;
          Alcotest.test_case "global compiles like a literal" `Quick
            global_compiles_like_literal;
        ] );
      ( "vm",
        [
          Alcotest.test_case "disassembly" `Quick vm_disassembly;
          Alcotest.test_case "superinstructions" `Quick vm_superinstructions;
          Alcotest.test_case "wide tuple projection" `Quick wide_tuple_projection;
          Alcotest.test_case "deep expression" `Quick vm_deep_expression;
          Alcotest.test_case "deep nesting stress" `Quick deep_nesting_stress;
          Alcotest.test_case "try across calls" `Quick vm_try_across_calls;
          Alcotest.test_case "backend list" `Quick backends_list;
        ] );
    ]
