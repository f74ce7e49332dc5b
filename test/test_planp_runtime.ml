(* Unit tests for the PLAN-P runtime: values, the packet codec, the
   primitive library, audio frames, the interpreter and the per-node
   runtime. *)

module Value = Planp_runtime.Value
module World = Planp_runtime.World
module Prim = Planp_runtime.Prim
module Prims = Planp_runtime.Prims
module Pkt_codec = Planp_runtime.Pkt_codec
module Audio_frame = Planp_runtime.Audio_frame
module Interp = Planp_runtime.Interp
module Runtime = Planp_runtime.Runtime
module Ptype = Planp.Ptype
module Packet = Netsim.Packet
module Payload = Netsim.Payload

let () = Prims.install ()
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let addr = Netsim.Addr.of_string

(* ---------- values ---------- *)

let value_equal () =
  checkb "ints" true (Value.equal (Value.Vint 3) (Value.Vint 3));
  checkb "tuples" true
    (Value.equal
       (Value.Vtuple [| Value.Vint 1; Value.Vstring "a" |])
       (Value.Vtuple [| Value.Vint 1; Value.Vstring "a" |]));
  checkb "different constructors" false
    (Value.equal (Value.Vint 1) (Value.Vbool true));
  let t1 = Value.Table.create 1 and t2 = Value.Table.create 1 in
  checkb "tables by identity" false (Value.equal (Value.Vtable t1) (Value.Vtable t2));
  checkb "same table" true (Value.equal (Value.Vtable t1) (Value.Vtable t1))

let value_defaults () =
  checkb "int" true (Value.equal (Value.default_of Ptype.Tint) (Value.Vint 0));
  checkb "tuple" true
    (Value.equal
       (Value.default_of (Ptype.Ttuple [ Ptype.Thost; Ptype.Tint ]))
       (Value.Vtuple [| Value.Vhost 0; Value.Vint 0 |]));
  Alcotest.check_raises "no blob default"
    (Value.Runtime_error "no default value for type blob") (fun () ->
      ignore (Value.default_of Ptype.Tblob))

let value_projections () =
  check "as_int" 5 (Value.as_int (Value.Vint 5));
  Alcotest.check_raises "wrong shape"
    (Value.Runtime_error "expected int, got true") (fun () ->
      ignore (Value.as_int (Value.Vbool true)))

(* ---------- packet codec ---------- *)

let tcp_packet body =
  Packet.tcp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1111
    ~dst_port:80 body

let codec_blob_roundtrip () =
  let ty = Ptype.Ttuple [ Ptype.Tip; Ptype.Ttcp; Ptype.Tblob ] in
  let packet = tcp_packet (Payload.of_string "hello") in
  match Pkt_codec.decode ty packet with
  | Some (Value.Vtuple [| Value.Vip ip; Value.Vtcp tcp; Value.Vblob body |]) ->
      check "src" (addr "1.1.1.1") ip.Value.vsrc;
      check "dst port" 80 tcp.Packet.tcp_dst;
      checks "body" "hello" (Payload.to_string body);
      let rebuilt =
        Pkt_codec.encode ~chan:"network"
          (Value.Vtuple [| Value.Vip ip; Value.Vtcp tcp; Value.Vblob body |])
      in
      checkb "untagged" true (rebuilt.Packet.chan_tag = None);
      checks "body preserved" "hello" (Payload.to_string rebuilt.Packet.body)
  | _ -> Alcotest.fail "decode failed"

let codec_scalar_layout () =
  let ty =
    Ptype.Ttuple [ Ptype.Tip; Ptype.Ttcp; Ptype.Tchar; Ptype.Tint; Ptype.Tbool ]
  in
  let w = Payload.Writer.create () in
  Payload.Writer.u8 w (Char.code 'X');
  Payload.Writer.u32 w 99;
  Payload.Writer.u8 w 1;
  let packet = tcp_packet (Payload.Writer.finish w) in
  match Pkt_codec.decode ty packet with
  | Some
      (Value.Vtuple [| _; _; Value.Vchar 'X'; Value.Vint 99; Value.Vbool true |])
    ->
      ()
  | _ -> Alcotest.fail "scalar layout decode"

let codec_exact_length_disambiguates () =
  (* The Fig. 4 overload mechanism: a 5-byte body matches char*int, not
     char*bool. *)
  let ci = Ptype.Ttuple [ Ptype.Tip; Ptype.Ttcp; Ptype.Tchar; Ptype.Tint ] in
  let cb = Ptype.Ttuple [ Ptype.Tip; Ptype.Ttcp; Ptype.Tchar; Ptype.Tbool ] in
  let w = Payload.Writer.create () in
  Payload.Writer.u8 w (Char.code 'A');
  Payload.Writer.u32 w 7;
  let five = tcp_packet (Payload.Writer.finish w) in
  checkb "matches char*int" true (Pkt_codec.matches ci five);
  checkb "not char*bool" false (Pkt_codec.matches cb five);
  let w = Payload.Writer.create () in
  Payload.Writer.u8 w (Char.code 'B');
  Payload.Writer.u8 w 0;
  let two = tcp_packet (Payload.Writer.finish w) in
  checkb "two matches char*bool" true (Pkt_codec.matches cb two);
  checkb "two not char*int" false (Pkt_codec.matches ci two)

let codec_transport_mismatch () =
  let udp_ty = Ptype.Ttuple [ Ptype.Tip; Ptype.Tudp; Ptype.Tblob ] in
  checkb "tcp packet vs udp type" false
    (Pkt_codec.matches udp_ty (tcp_packet Payload.empty));
  let any_ty = Ptype.Ttuple [ Ptype.Tip; Ptype.Tblob ] in
  checkb "ip*blob matches any transport" true
    (Pkt_codec.matches any_ty (tcp_packet Payload.empty))

let codec_string_component () =
  let ty = Ptype.Ttuple [ Ptype.Tip; Ptype.Tudp; Ptype.Tstring; Ptype.Tint ] in
  let w = Payload.Writer.create () in
  Payload.Writer.u16 w 3;
  Payload.Writer.string w "abc";
  Payload.Writer.u32 w 5;
  let packet =
    Packet.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:2 (Payload.Writer.finish w)
  in
  match Pkt_codec.decode ty packet with
  | Some (Value.Vtuple [| _; _; Value.Vstring "abc"; Value.Vint 5 |]) -> ()
  | _ -> Alcotest.fail "string component"

let codec_negative_int () =
  let ty = Ptype.Ttuple [ Ptype.Tip; Ptype.Tudp; Ptype.Tint ] in
  let value =
    Value.Vtuple
      [| Value.Vip { Value.vsrc = addr "1.1.1.1"; vdst = addr "2.2.2.2"; vttl = 9 };
         Value.Vudp { Packet.udp_src = 1; udp_dst = 2 };
         Value.Vint (-42) |]
  in
  let packet = Pkt_codec.encode ~chan:"network" value in
  check "ttl preserved" 9 packet.Packet.ttl;
  match Pkt_codec.decode ty packet with
  | Some (Value.Vtuple [| _; _; Value.Vint n |]) -> check "sign extended" (-42) n
  | _ -> Alcotest.fail "negative int roundtrip"

let codec_tag () =
  let value =
    Value.Vtuple
      [| Value.Vip { Value.vsrc = 1; vdst = 2; vttl = 64 };
         Value.Vudp { Packet.udp_src = 1; udp_dst = 2 };
         Value.Vblob Payload.empty |]
  in
  let tagged = Pkt_codec.encode ~chan:"mychan" value in
  Alcotest.(check (option string)) "tagged" (Some "mychan") tagged.Packet.chan_tag

(* ---------- primitives ---------- *)

let dummy_eval name args =
  let world, _, _ = World.dummy () in
  (Prim.find_exn name).Prim.impl world (Array.of_list args)

let prims_core () =
  checks "itos" "42" (Value.as_string (dummy_eval "itos" [ Value.Vint 42 ]));
  checks "htos" "10.0.0.1"
    (Value.as_string (dummy_eval "htos" [ Value.Vhost (addr "10.0.0.1") ]));
  check "charPos" 80 (Value.as_int (dummy_eval "charPos" [ Value.Vchar 'P' ]));
  check "strlen" 5 (Value.as_int (dummy_eval "strlen" [ Value.Vstring "hello" ]));
  checks "substr" "ell"
    (Value.as_string
       (dummy_eval "substr" [ Value.Vstring "hello"; Value.Vint 1; Value.Vint 3 ]));
  check "strFind hit" 2
    (Value.as_int (dummy_eval "strFind" [ Value.Vstring "hello"; Value.Vstring "llo" ]));
  check "strFind miss" (-1)
    (Value.as_int (dummy_eval "strFind" [ Value.Vstring "hello"; Value.Vstring "x" ]));
  check "min" 1 (Value.as_int (dummy_eval "min" [ Value.Vint 1; Value.Vint 2 ]));
  checkb "even" true (Value.as_bool (dummy_eval "even" [ Value.Vint 4 ]))

let prims_core_errors () =
  Alcotest.check_raises "substr oob" (Value.Planp_raise "OutOfBounds") (fun () ->
      ignore
        (dummy_eval "substr" [ Value.Vstring "ab"; Value.Vint 1; Value.Vint 5 ]));
  Alcotest.check_raises "chr range" (Value.Planp_raise "BadChar") (fun () ->
      ignore (dummy_eval "chr" [ Value.Vint 300 ]))

let prims_blob () =
  let blob = Value.Vblob (Payload.of_string "\x01\x02\x03\x04\x05") in
  check "blobLength" 5 (Value.as_int (dummy_eval "blobLength" [ blob ]));
  check "blobByte" 3 (Value.as_int (dummy_eval "blobByte" [ blob; Value.Vint 2 ]));
  check "blobU32" 0x01020304 (Value.as_int (dummy_eval "blobU32" [ blob; Value.Vint 0 ]));
  let sub = dummy_eval "blobSub" [ blob; Value.Vint 1; Value.Vint 2 ] in
  check "blobSub len" 2 (Payload.length (Value.as_blob sub));
  let cat = dummy_eval "blobConcat" [ sub; sub ] in
  check "blobConcat" 4 (Payload.length (Value.as_blob cat))

let prims_net () =
  let ip = Value.Vip { Value.vsrc = addr "1.1.1.1"; vdst = addr "2.2.2.2"; vttl = 64 } in
  check "ipSrc" (addr "1.1.1.1") (Value.as_host (dummy_eval "ipSrc" [ ip ]));
  let rewritten = dummy_eval "ipDestSet" [ ip; Value.Vhost (addr "9.9.9.9") ] in
  check "ipDestSet" (addr "9.9.9.9") (Value.as_ip rewritten).Value.vdst;
  check "src unchanged" (addr "1.1.1.1") (Value.as_ip rewritten).Value.vsrc;
  let tcp =
    Value.Vtcp
      { Packet.tcp_src = 10; tcp_dst = 80; tcp_seq = 0; tcp_ack = 0;
        tcp_syn = false; tcp_fin = false; tcp_is_ack = false }
  in
  check "tcpDst" 80 (Value.as_int (dummy_eval "tcpDst" [ tcp ]));
  let retargeted = dummy_eval "tcpDstSet" [ tcp; Value.Vint 8080 ] in
  check "tcpDstSet" 8080 (Value.as_tcp retargeted).Packet.tcp_dst;
  checkb "isMulticast" true
    (Value.as_bool (dummy_eval "isMulticast" [ Value.Vhost (addr "224.0.0.1") ]))

let prims_table () =
  let table = dummy_eval "mkTable" [ Value.Vint 8 ] in
  let key = Value.Vtuple [| Value.Vhost 1; Value.Vint 2 |] in
  checkb "miss" false (Value.as_bool (dummy_eval "tblMem" [ table; key ]));
  check "default" 7
    (Value.as_int (dummy_eval "tblGet" [ table; key; Value.Vint 7 ]));
  ignore (dummy_eval "tblSet" [ table; key; Value.Vint 1 ]);
  checkb "hit" true (Value.as_bool (dummy_eval "tblMem" [ table; key ]));
  check "get" 1 (Value.as_int (dummy_eval "tblGet" [ table; key; Value.Vint 7 ]));
  check "size" 1 (Value.as_int (dummy_eval "tblSize" [ table ]));
  ignore (dummy_eval "tblRemove" [ table; key ]);
  check "removed" 0 (Value.as_int (dummy_eval "tblSize" [ table ]))

(* ---------- audio frames ---------- *)

let audio_roundtrip () =
  let frame = Audio_frame.synth ~seq:3 ~frames:100 ~phase:0 in
  let decoded = Option.get (Audio_frame.decode (Audio_frame.encode frame)) in
  checkb "roundtrip" true (Audio_frame.equal frame decoded);
  check "frame count" 100 (Audio_frame.frame_count decoded)

let audio_sizes () =
  let frame = Audio_frame.synth ~seq:0 ~frames:882 ~phase:0 in
  check "stereo16 wire" (7 + (882 * 4)) (Payload.length (Audio_frame.encode frame));
  let m16 = Audio_frame.degrade frame Audio_frame.Mono16 in
  check "mono16 wire" (7 + (882 * 2)) (Payload.length (Audio_frame.encode m16));
  let m8 = Audio_frame.degrade frame Audio_frame.Mono8 in
  check "mono8 wire" (7 + 882) (Payload.length (Audio_frame.encode m8))

let audio_degrade_monotone () =
  let frame = Audio_frame.synth ~seq:0 ~frames:500 ~phase:17 in
  let m16 = Audio_frame.degrade frame Audio_frame.Mono16 in
  let m8 = Audio_frame.degrade frame Audio_frame.Mono8 in
  let e16 = Audio_frame.rms_error frame m16 in
  let e8 = Audio_frame.rms_error frame m8 in
  checkb "mono16 loses something" true (e16 > 0.0);
  checkb "mono8 loses more" true (e8 > e16);
  checkb "no upgrade" true
    (Audio_frame.equal m8 (Audio_frame.degrade m8 Audio_frame.Stereo16))

let audio_restore_format () =
  let frame = Audio_frame.synth ~seq:0 ~frames:50 ~phase:3 in
  let restored =
    Audio_frame.restore (Audio_frame.degrade frame Audio_frame.Mono8)
  in
  checkb "stereo16 format" true (restored.Audio_frame.quality = Audio_frame.Stereo16);
  check "same frame count" 50 (Audio_frame.frame_count restored)

(* The audio datapath's frames are minor-heap blocks: [Wire.synth] is a
   header over a slice of its period table, [Wire.degrade]'s outputs are
   at most 1,771 bytes at 882 frames (a 20 ms frame), and [Wire.restore]
   builds its 3,535-byte output in parts of at most 2,040 bytes. So
   10,000 rounds of synth, degrade and restore allocate nothing directly
   in the major heap and finish no major collection. *)
let audio_frames_off_major_heap () =
  let module Wire = Audio_frame.Wire in
  let frames = 882 in
  let round i =
    let frame = Wire.synth ~seq:i ~frames ~phase:(i * frames) in
    (* A slice past the 7-byte header lies inside the table view. *)
    let samples = Payload.sub frame ~pos:7 ~len:(Payload.length frame - 7) in
    ignore (Payload.get_u8 samples 0 : int);
    let target = if i land 1 = 0 then Audio_frame.Mono16 else Audio_frame.Mono8 in
    match Wire.degrade frame target with
    | None -> Alcotest.fail "synth frame rejected"
    | Some degraded -> (
        match Wire.restore degraded with
        | None -> Alcotest.fail "degraded frame rejected"
        | Some restored -> Payload.get_u8 restored 4)
  in
  (* One round first: the period table and the closures are set up. The
     runtime adds a domain's direct major-heap words to its counters at
     the next collection, so one precedes each reading. *)
  ignore (round 0);
  Gc.full_major ();
  let before = Gc.quick_stat () in
  let qualities = ref 0 in
  for i = 1 to 10_000 do
    qualities := !qualities + round i
  done;
  Gc.minor ();
  let after = Gc.quick_stat () in
  check "every restored frame is stereo16" 0 !qualities;
  let direct s = s.Gc.major_words -. s.Gc.promoted_words in
  Alcotest.(check (float 0.0))
    "words allocated directly in the major heap" 0.0
    (direct after -. direct before);
  check "major collections" 0
    (after.Gc.major_collections - before.Gc.major_collections)

let audio_prims () =
  let frame = Audio_frame.synth ~seq:9 ~frames:40 ~phase:0 in
  let blob = Value.Vblob (Audio_frame.encode frame) in
  check "audioSeq" 9 (Value.as_int (dummy_eval "audioSeq" [ blob ]));
  check "audioQuality" 0 (Value.as_int (dummy_eval "audioQuality" [ blob ]));
  check "audioFrames" 40 (Value.as_int (dummy_eval "audioFrames" [ blob ]));
  let degraded = dummy_eval "audioDegrade" [ blob; Value.Vint 2 ] in
  check "degraded quality" 2
    (Value.as_int (dummy_eval "audioQuality" [ degraded ]));
  Alcotest.check_raises "bad audio" (Value.Planp_raise "BadAudio") (fun () ->
      ignore (dummy_eval "audioSeq" [ Value.Vblob (Payload.of_string "junk") ]))

(* ---------- interpreter ---------- *)

let eval_str ?(globals = []) source =
  let world, _, _ = World.dummy () in
  Interp.eval_const ~world ~globals (Planp.Parser.parse_expr source)

let interp_arith () =
  check "precedence" 7 (Value.as_int (eval_str "1 + 2 * 3"));
  check "mod" 2 (Value.as_int (eval_str "17 mod 5"));
  check "neg" (-4) (Value.as_int (eval_str "-(2 + 2)"));
  checks "concat" "ab" (Value.as_string (eval_str "\"a\" ^ \"b\""))

let interp_short_circuit () =
  checkb "andalso" false (Value.as_bool (eval_str "false andalso 1 / 0 = 1"));
  checkb "orelse" true (Value.as_bool (eval_str "true orelse 1 / 0 = 1"))

let interp_let_scoping () =
  check "sequential bindings" 3
    (Value.as_int (eval_str "let val x : int = 1 val y : int = x + 2 in y end"));
  check "shadowing" 10
    (Value.as_int (eval_str "let val x : int = 1 val x : int = 10 in x end"))

let interp_exceptions () =
  Alcotest.check_raises "div by zero" (Value.Planp_raise "DivByZero") (fun () ->
      ignore (eval_str "1 / 0"));
  check "handled" 5
    (Value.as_int (eval_str "try 1 / 0 handle DivByZero => 5 end"));
  check "inner handler wins" 1
    (Value.as_int
       (eval_str
          "try (try 1 / 0 handle DivByZero => 1 end) handle DivByZero => 2 end"));
  Alcotest.check_raises "unmatched handler" (Value.Planp_raise "DivByZero")
    (fun () -> ignore (eval_str "try 1 / 0 handle OutOfBounds => 5 end"))

let interp_emissions () =
  let world, prints, emissions = World.dummy () in
  let source =
    "channel network(ps : int, ss : int, p : ip*udp*blob) is\n\
     (print(\"saw \" ^ itos(ps)); OnRemote(network, p); (ps + 1, ss))"
  in
  let checked =
    Planp.Typecheck.check_exn ~prims:Prim.type_lookup (Planp.Parser.parse source)
  in
  let compiled = Interp.backend.Planp_runtime.Backend.compile checked ~globals:[] in
  let _, exec = List.hd compiled in
  let pkt =
    Option.get
      (Pkt_codec.decode
         (Ptype.Ttuple [ Ptype.Tip; Ptype.Tudp; Ptype.Tblob ])
         (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 Payload.empty))
  in
  let ps', _ = exec world ~ps:(Value.Vint 0) ~ss:(Value.Vint 0) ~pkt in
  check "state advanced" 1 (Value.as_int ps');
  check "one emission" 1 (List.length (emissions ()));
  Alcotest.(check (list string)) "print" [ "saw 0" ] (prints ())

(* The interpreter's step and primitive cells are per domain, so
   partitioned runs count without races. *)
let interp_profile_domains () =
  let source =
    "channel network(ps : int, ss : unit, p : ip*udp*blob) is ((ps + 1), ss)"
  in
  let chk =
    Planp.Typecheck.check_exn ~prims:Prim.type_lookup (Planp.Parser.parse source)
  in
  let chan, exec =
    match Interp.backend.Planp_runtime.Backend.compile chk ~globals:[] with
    | [ slot ] -> slot
    | _ -> Alcotest.fail "one channel"
  in
  let packet =
    Packet.udp
      ~src:(Netsim.Addr.of_string "10.50.0.2")
      ~dst:(Netsim.Addr.of_string "10.50.0.1")
      ~src_port:1 ~dst_port:2 (Payload.of_string "x")
  in
  let pkt =
    match Pkt_codec.decode chan.Planp.Ast.pkt_type packet with
    | Some v -> v
    | None -> Alcotest.fail "decode"
  in
  let run_packets n () =
    let world, _, _ = World.dummy () in
    let s0, _ = Interp.profile () in
    for _ = 1 to n do
      ignore (exec world ~ps:(Value.Vint 0) ~ss:Value.Vunit ~pkt)
    done;
    let s1, _ = Interp.profile () in
    s1 - s0
  in
  let main0, _ = Interp.profile () in
  let d1 = Domain.spawn (run_packets 100) in
  let d2 = Domain.spawn (run_packets 200) in
  let steps1 = Domain.join d1 and steps2 = Domain.join d2 in
  let main1, _ = Interp.profile () in
  checkb "domain one counted" true (steps1 > 0);
  (* Same packet, same channel: per-packet step cost is deterministic,
     so the counts are exactly proportional — and main's cell is
     untouched by the workers. *)
  check "per-domain counts are independent" (2 * steps1) steps2;
  check "main domain unaffected" main0 main1

(* ---------- runtime ---------- *)

let loopback_runtime () =
  let engine = Netsim.Engine.create () in
  let node = Netsim.Node.create engine ~name:"n" ~addr:(addr "10.0.0.1") in
  ignore (Netsim.Node.add_iface node ~name:"if0" (fun ~l2_dst:_ _ -> true));
  Runtime.attach node

let runtime_dispatch_and_state () =
  let rt = loopback_runtime () in
  let program =
    Runtime.install_exn rt
      ~source:
        "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + 1, ss + 10))"
      ()
  in
  let packet () = Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 Payload.empty in
  Runtime.inject rt (packet ());
  Runtime.inject rt (packet ());
  checkb "proto threaded" true
    (Value.equal (Value.Vint 2) (Runtime.proto_state program));
  (match Runtime.channel_state program "network" 0 with
  | Some state -> checkb "channel state" true (Value.equal (Value.Vint 20) state)
  | None -> Alcotest.fail "channel state missing");
  check "handled" 2 (Runtime.stats rt).Runtime.handled

let runtime_overload_dispatch () =
  (* Fig. 4: two network channels over TCP with differently-typed bodies. *)
  let rt = loopback_runtime () in
  ignore
    (Runtime.install_exn rt
       ~source:
         "channel network(ps : int, ss : int, p : ip*tcp*char*int) is\n\
          (print(\"CmdA:\" ^ itos(#4 p)); deliver(p); (ps, ss))\n\
          channel network(ps : int, ss : int, p : ip*tcp*char*bool) is\n\
          (print(\"CmdB\"); deliver(p); (ps, ss))"
       ());
  let send bytes =
    let w = Payload.Writer.create () in
    List.iter (fun b -> Payload.Writer.u8 w b) bytes;
    Runtime.inject rt
      (Packet.tcp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 (Payload.Writer.finish w))
  in
  send [ Char.code 'A'; 0; 0; 0; 42 ];
  send [ Char.code 'B'; 1 ];
  checks "routing by payload shape" "CmdA:42CmdB" (Runtime.output rt)

let runtime_tagged_channels () =
  let rt = loopback_runtime () in
  ignore
    (Runtime.install_exn rt
       ~source:
         "channel ctl(ps : int, ss : int, p : ip*udp*int) is (deliver(p); (ps + #3 p, ss))\n\
          channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps, ss))"
       ());
  let w = Payload.Writer.create () in
  Payload.Writer.u32 w 5;
  Runtime.inject rt
    (Packet.udp ~chan_tag:"ctl" ~src:1 ~dst:2 ~src_port:1 ~dst_port:2
       (Payload.Writer.finish w));
  (* untagged 4-byte packet must go to network, not ctl *)
  let w = Payload.Writer.create () in
  Payload.Writer.u32 w 9;
  Runtime.inject rt
    (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 (Payload.Writer.finish w));
  let program = List.hd (Runtime.installed_programs rt) in
  checkb "only tagged packet hit ctl" true
    (Value.equal (Value.Vint 5) (Runtime.proto_state program))

let runtime_fallthrough_and_errors () =
  let rt = loopback_runtime () in
  ignore
    (Runtime.install_exn rt
       ~source:
         "exception Boom\n\
          channel network(ps : int, ss : int, p : ip*tcp*blob) is\n\
          (deliver(p); if tcpDst(#2 p) = 666 then raise Boom else (ps, ss))"
       ());
  Runtime.inject rt (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 Payload.empty);
  check "fallthrough" 1 (Runtime.stats rt).Runtime.fallthrough;
  Runtime.inject rt (Packet.tcp ~src:1 ~dst:2 ~src_port:1 ~dst_port:666 Payload.empty);
  check "errors" 1 (Runtime.stats rt).Runtime.errors

let runtime_install_errors () =
  let rt = loopback_runtime () in
  (match Runtime.install rt ~source:"val x : int = " () with
  | Error (Runtime.Parse_error _) -> ()
  | _ -> Alcotest.fail "parse error expected");
  (match Runtime.install rt ~source:"val x : int = true" () with
  | Error (Runtime.Type_error _) -> ()
  | _ -> Alcotest.fail "type error expected");
  match
    Runtime.install rt ~pre:(fun _ -> Error "nope") ~source:"val x : int = 1" ()
  with
  | Error (Runtime.Rejected "nope") -> ()
  | _ -> Alcotest.fail "rejection expected"

let runtime_uninstall () =
  let rt = loopback_runtime () in
  let program =
    Runtime.install_exn rt
      ~source:
        "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + 1, ss))"
      ()
  in
  Runtime.inject rt (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 Payload.empty);
  Runtime.uninstall rt program;
  Runtime.inject rt (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 Payload.empty);
  check "second packet fell through" 1 (Runtime.stats rt).Runtime.fallthrough;
  check "no programs left" 0 (List.length (Runtime.installed_programs rt))

let runtime_multiple_programs () =
  (* Two programs on one node: consulted in installation order, each
     treating the packets its channels match. *)
  let rt = loopback_runtime () in
  let limiter =
    Runtime.install_exn rt ~name:"udp-counter"
      ~source:
        "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + 1, ss))"
      ()
  in
  let redirect =
    Runtime.install_exn rt ~name:"tcp-counter"
      ~source:
        "channel network(ps : int, ss : int, p : ip*tcp*blob) is (deliver(p); (ps + 1, ss))"
      ()
  in
  check "two programs installed" 2 (List.length (Runtime.installed_programs rt));
  Runtime.inject rt (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:9 Payload.empty);
  Runtime.inject rt (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:9 Payload.empty);
  Runtime.inject rt (Packet.tcp ~src:1 ~dst:2 ~src_port:1 ~dst_port:80 Payload.empty);
  checkb "udp program counted 2" true
    (Value.equal (Value.Vint 2) (Runtime.proto_state limiter));
  checkb "tcp program counted 1" true
    (Value.equal (Value.Vint 1) (Runtime.proto_state redirect));
  check "all handled" 3 (Runtime.stats rt).Runtime.handled

let runtime_reinstall_ordering () =
  (* Programs are consulted in installation order, and [install] always
     appends — so reinstalling a same-named program moves it to the END of
     the dispatch order.  Two programs whose channels both match UDP make
     the order observable: whichever is consulted first treats the packet. *)
  let rt = loopback_runtime () in
  let counter name =
    Printf.sprintf
      "channel network(ps : int, ss : int, p : ip*udp*blob) is (deliver(p); (ps + %s, ss))"
      name
  in
  let packet () =
    Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:9 Payload.empty
  in
  let first = Runtime.install_exn rt ~name:"first" ~source:(counter "1") () in
  let second = Runtime.install_exn rt ~name:"second" ~source:(counter "1") () in
  Runtime.inject rt (packet ());
  checkb "first-installed program shadows the second" true
    (Value.equal (Value.Vint 1) (Runtime.proto_state first));
  checkb "second saw nothing" true
    (Value.equal (Value.Vint 0) (Runtime.proto_state second));
  (* Reinstall "first" the way the deploy daemon hot-swaps: install the
     replacement, then uninstall the old instance. *)
  let first' = Runtime.install_exn rt ~name:"first" ~source:(counter "1") () in
  Runtime.uninstall rt first;
  check "still two programs" 2 (List.length (Runtime.installed_programs rt));
  checkb "reinstalled program now sits at the end" true
    (match Runtime.installed_programs rt with
    | [ a; b ] ->
        Runtime.program_name a = "second" && Runtime.program_name b = "first"
        && b == first'
    | _ -> false);
  Runtime.inject rt (packet ());
  checkb "second now consulted first" true
    (Value.equal (Value.Vint 1) (Runtime.proto_state second));
  checkb "reinstalled first is shadowed" true
    (Value.equal (Value.Vint 0) (Runtime.proto_state first'));
  check "every packet handled" 2 (Runtime.stats rt).Runtime.handled

let runtime_channel_hits () =
  let rt = loopback_runtime () in
  let program =
    Runtime.install_exn rt
      ~source:
        "channel network(ps : int, ss : int, p : ip*tcp*char*int) is (deliver(p); (ps, ss))\n\
         channel network(ps : int, ss : int, p : ip*tcp*char*bool) is (deliver(p); (ps, ss))"
      ()
  in
  let send bytes =
    let w = Payload.Writer.create () in
    List.iter (Payload.Writer.u8 w) bytes;
    Runtime.inject rt
      (Packet.tcp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 (Payload.Writer.finish w))
  in
  send [ 65; 0; 0; 0; 1 ];
  send [ 65; 0; 0; 0; 2 ];
  send [ 66; 1 ];
  match Runtime.channel_hits program with
  | [ (_, _, first); (_, _, second) ] ->
      check "char*int overload" 2 first;
      check "char*bool overload" 1 second
  | _ -> Alcotest.fail "two overloads expected"

let runtime_globals_evaluated_once () =
  let rt = loopback_runtime () in
  let program =
    Runtime.install_exn rt
      ~source:
        "val limit : int = 2 + 3\n\
         channel network(ps : int, ss : int, p : ip*udp*blob) is\n\
         (deliver(p); (ps + limit, ss))"
      ()
  in
  Runtime.inject rt (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2 Payload.empty);
  checkb "global used" true (Value.equal (Value.Vint 5) (Runtime.proto_state program))

(* The runtime reuses one world per incoming interface (and one for
   [inject]'s -1). Every packet must still see its own interface and the
   time it ran at, including after the node moves to another engine, as a
   partitioned run does. *)
let runtime_world_per_iface () =
  List.iter
    (fun backend ->
      let engine = Netsim.Engine.create () in
      let node = Netsim.Node.create engine ~name:"n" ~addr:(addr "10.0.0.1") in
      for i = 0 to 1 do
        ignore
          (Netsim.Node.add_iface node ~name:(Printf.sprintf "if%d" i)
             (fun ~l2_dst:_ _ -> true))
      done;
      let rt = Runtime.attach node in
      ignore
        (Runtime.install_exn ~backend rt
           ~source:
             "channel network(ps : int, ss : int, p : ip*udp*blob) is\n\
              (print(itos(thisIface()) ^ \"@\" ^ itos(timeMs()) ^ \";\"); (ps, ss))"
           ());
      let expected = Buffer.create 64 in
      (* Six packets per engine, cycling through interfaces 0, 1 and -1,
         a quarter second apart from [start]. *)
      let inject_on engine ~start =
        for k = 0 to 5 do
          let ifindex = [| 0; 1; -1 |].(k mod 3) in
          let at = start +. (0.25 *. float_of_int (k + 1)) in
          Buffer.add_string expected
            (Printf.sprintf "%d@%d;" ifindex (int_of_float (at *. 1000.0)));
          Netsim.Engine.schedule engine ~at (fun () ->
              Runtime.inject ~ifindex rt
                (Packet.udp ~src:1 ~dst:2 ~src_port:1 ~dst_port:2
                   Payload.empty))
        done;
        Netsim.Engine.run_until engine ~stop:(start +. 2.0)
      in
      inject_on engine ~start:0.0;
      let later = Netsim.Engine.create () in
      Netsim.Engine.run_until later ~stop:50.0;
      Netsim.Node.set_engine node later;
      inject_on later ~start:50.0;
      checks
        (backend.Planp_runtime.Backend.backend_name
       ^ ": each packet's interface and time")
        (Buffer.contents expected) (Runtime.output rt);
      check "handled" 12 (Runtime.stats rt).Runtime.handled)
    [ Interp.backend; Planp_jit.Specialize.backend ]

let () =
  Alcotest.run "planp-runtime"
    [
      ( "value",
        [
          Alcotest.test_case "equal" `Quick value_equal;
          Alcotest.test_case "defaults" `Quick value_defaults;
          Alcotest.test_case "projections" `Quick value_projections;
        ] );
      ( "codec",
        [
          Alcotest.test_case "blob roundtrip" `Quick codec_blob_roundtrip;
          Alcotest.test_case "scalar layout" `Quick codec_scalar_layout;
          Alcotest.test_case "exact length disambiguates" `Quick
            codec_exact_length_disambiguates;
          Alcotest.test_case "transport mismatch" `Quick codec_transport_mismatch;
          Alcotest.test_case "string component" `Quick codec_string_component;
          Alcotest.test_case "negative int" `Quick codec_negative_int;
          Alcotest.test_case "channel tag" `Quick codec_tag;
        ] );
      ( "prims",
        [
          Alcotest.test_case "core" `Quick prims_core;
          Alcotest.test_case "core errors" `Quick prims_core_errors;
          Alcotest.test_case "blob" `Quick prims_blob;
          Alcotest.test_case "net" `Quick prims_net;
          Alcotest.test_case "table" `Quick prims_table;
        ] );
      ( "audio",
        [
          Alcotest.test_case "roundtrip" `Quick audio_roundtrip;
          Alcotest.test_case "sizes" `Quick audio_sizes;
          Alcotest.test_case "degrade monotone" `Quick audio_degrade_monotone;
          Alcotest.test_case "restore format" `Quick audio_restore_format;
          Alcotest.test_case "frames off the major heap" `Quick
            audio_frames_off_major_heap;
          Alcotest.test_case "primitives" `Quick audio_prims;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arith" `Quick interp_arith;
          Alcotest.test_case "short circuit" `Quick interp_short_circuit;
          Alcotest.test_case "let scoping" `Quick interp_let_scoping;
          Alcotest.test_case "exceptions" `Quick interp_exceptions;
          Alcotest.test_case "emissions" `Quick interp_emissions;
          Alcotest.test_case "profiling is per-domain" `Quick
            interp_profile_domains;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "dispatch and state" `Quick runtime_dispatch_and_state;
          Alcotest.test_case "overload dispatch" `Quick runtime_overload_dispatch;
          Alcotest.test_case "tagged channels" `Quick runtime_tagged_channels;
          Alcotest.test_case "fallthrough and errors" `Quick
            runtime_fallthrough_and_errors;
          Alcotest.test_case "install errors" `Quick runtime_install_errors;
          Alcotest.test_case "uninstall" `Quick runtime_uninstall;
          Alcotest.test_case "globals once" `Quick runtime_globals_evaluated_once;
          Alcotest.test_case "channel hits" `Quick runtime_channel_hits;
          Alcotest.test_case "multiple programs" `Quick runtime_multiple_programs;
          Alcotest.test_case "reinstall ordering" `Quick
            runtime_reinstall_ordering;
          Alcotest.test_case "world per interface" `Quick
            runtime_world_per_iface;
        ] );
    ]
