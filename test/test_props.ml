(* Property-based tests (qcheck): data-structure invariants, codec
   roundtrips, and — most valuable — differential testing of the three
   execution backends on randomly generated PLAN-P expressions. *)

module Q = QCheck
module Ast = Planp.Ast
module Value = Planp_runtime.Value
module World = Planp_runtime.World
module Interp = Planp_runtime.Interp
module Specialize = Planp_jit.Specialize
module Bytecomp = Planp_jit.Bytecomp
module Vm = Planp_jit.Vm
module Payload = Netsim.Payload
module Audio_frame = Planp_runtime.Audio_frame

let () = Planp_runtime.Prims.install ()

(* ---------- simple invariants ---------- *)

let addr_roundtrip =
  Q.Test.make ~name:"addr: octets roundtrip through string" ~count:500
    Q.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
      let addr = Netsim.Addr.of_octets a b c d in
      Netsim.Addr.of_string (Netsim.Addr.to_string addr) = addr)

let sched_matches_reference_model =
  (* Differential test of the calendar queue against a sorted-list model
     under random interleavings of add and pop. Times sit on a coarse grid
     so equal-time ties are frequent (exercising FIFO order), and the tiny
     8-bucket wheel forces constant horizon overflow and rotation. *)
  let op_gen =
    Q.Gen.(
      frequency
        [ (3, map (fun n -> `Add (float_of_int n /. 4.0)) (int_bound 40));
          (2, return `Pop) ])
  in
  Q.Test.make ~name:"sched: interleaved add/pop matches sorted reference"
    ~count:300
    (Q.make Q.Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let sched = Netsim.Sched.create ~nbuckets:8 ~dummy:(-1) () in
      let cell = { Netsim.Sched.v = 0.0 } in
      let model = ref [] (* sorted by (time, insertion order) *) in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Add time ->
              let id = !next in
              incr next;
              Netsim.Sched.add sched ~time id;
              let rec ins = function
                | (t', id') :: rest when t' <= time -> (t', id') :: ins rest
                | rest -> (time, id) :: rest
              in
              model := ins !model;
              true
          | `Pop -> (
              match !model with
              | [] -> Netsim.Sched.is_empty sched
              | (t, id) :: rest ->
                  model := rest;
                  (not (Netsim.Sched.is_empty sched))
                  && Netsim.Sched.pop sched ~into:cell = id
                  && cell.Netsim.Sched.v = t))
        ops
      && Netsim.Sched.size sched = List.length !model)

let bucket_int_float_parity =
  (* The integer hot-path bucketing must agree with the float reference on
     every int, especially at the power-of-two slot boundaries. *)
  Q.Test.make ~name:"registry: bucket_of_int agrees with bucket_of" ~count:500
    (Q.make
       Q.Gen.(
         oneof
           [ int_bound 1_000_000;
             map (fun k -> (1 lsl k) - 1) (int_range 0 52);
             map (fun k -> 1 lsl k) (int_range 0 52);
             map (fun k -> (1 lsl k) + 1) (int_range 0 51);
             map Int.neg (int_bound 1000) ]))
    (fun v ->
      Obs.Registry.bucket_of_int v = Obs.Registry.bucket_of (float_of_int v))

let payload_u32_roundtrip =
  Q.Test.make ~name:"payload: u32 write/read roundtrip" ~count:500
    Q.(list_of_size (Q.Gen.int_range 0 20) (int_bound 0xFFFFFF))
    (fun values ->
      let w = Payload.Writer.create () in
      List.iter (Payload.Writer.u32 w) values;
      let r = Payload.Reader.create (Payload.Writer.finish w) in
      List.for_all (fun v -> Payload.Reader.u32 r = v) values
      && Payload.Reader.remaining r = 0)

let audio_frame_roundtrip =
  let sample = Q.Gen.int_range (-32768) 32767 in
  Q.Test.make ~name:"audio: encode/decode roundtrip (stereo16)" ~count:200
    (Q.make
       Q.Gen.(
         pair (int_range 0 100000) (list_size (int_range 0 64) (pair sample sample))))
    (fun (seq, pairs) ->
      let samples = Array.of_list (List.concat_map (fun (l, r) -> [ l; r ]) pairs) in
      let frame = { Audio_frame.seq; quality = Audio_frame.Stereo16; samples } in
      match Audio_frame.decode (Audio_frame.encode frame) with
      | Some decoded -> Audio_frame.equal frame decoded
      | None -> false)

let audio_degrade_size =
  Q.Test.make ~name:"audio: degradation shrinks the wire size" ~count:100
    Q.(int_range 1 200)
    (fun frames ->
      let frame = Audio_frame.synth ~seq:0 ~frames ~phase:frames in
      let size q =
        Payload.length (Audio_frame.encode (Audio_frame.degrade frame q))
      in
      size Audio_frame.Stereo16 > size Audio_frame.Mono16
      && size Audio_frame.Mono16 > size Audio_frame.Mono8)

(* ---------- audio: wire-byte kernels against the reference ---------- *)

module Wire = Audio_frame.Wire

(* Frame-shaped byte strings: a 7-byte header with quality code 0..3 (3 is
   invalid) over a body of whole frames, one byte short or one byte long;
   or a bare 0..7 bytes. Samples lean on the 16-bit extremes and small
   negatives, and random pairs give odd channel sums: the reference
   averages with [/ 2], which truncates toward zero, and narrows with
   [asr 8]. *)
let audio_bytes_gen =
  let open Q.Gen in
  let sample =
    frequency
      [
        (1, oneofl [ -32768; 32767; -1; 1; -255; -256; -257; 255; 256 ]);
        (3, int_range (-32768) 32767);
      ]
  in
  let framed =
    let* seq = map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xffff) (int_bound 0xffff) in
    let* code = int_range 0 3 in
    let* frames = int_range 0 40 in
    let* skew = frequency [ (4, return 0); (1, return (-1)); (1, return 1) ] in
    let body_len = Int.max 0 ((frames * [| 4; 2; 1; 2 |].(code)) + skew) in
    let+ samples = list_repeat ((body_len / 2) + 1) sample in
    let out = Bytes.create (7 + (2 * List.length samples)) in
    Bytes.set_int32_be out 0 (Int32.of_int seq);
    Bytes.set_uint8 out 4 code;
    Bytes.set_uint16_be out 5 frames;
    List.iteri (fun i v -> Bytes.set_int16_be out (7 + (2 * i)) v) samples;
    Bytes.sub_string out 0 (7 + body_len)
  in
  frequency [ (5, framed); (1, string_size ~gen:char (int_range 0 7)) ]

(* The same bytes as a plain payload, as a view into a larger string (a
   nonzero offset) and as an unforced two-part rope. *)
let audio_payload_gen =
  Q.Gen.pair audio_bytes_gen (Q.Gen.int_range 0 2)

let audio_payload (bytes, shape) =
  let len = String.length bytes in
  match shape with
  | 0 -> Payload.of_string bytes
  | 1 -> Payload.sub (Payload.of_string ("<<<" ^ bytes ^ ">>")) ~pos:3 ~len
  | _ ->
      Payload.concat
        [
          Payload.of_string (String.sub bytes 0 (len / 2));
          Payload.of_string (String.sub bytes (len / 2) (len - (len / 2)));
        ]

let audio_payload_arb =
  Q.make
    ~print:(fun (bytes, shape) ->
      Printf.sprintf "shape %d, %d bytes: %s" shape (String.length bytes)
        (String.concat " "
           (List.map
              (fun c -> Printf.sprintf "%02x" (Char.code c))
              (List.of_seq (String.to_seq bytes)))))
    audio_payload_gen

let audio_qualities = [ Audio_frame.Stereo16; Audio_frame.Mono16; Audio_frame.Mono8 ]

let audio_wire_matches_reference =
  Q.Test.make ~name:"audio: wire kernels match the reference byte for byte"
    ~count:2000 audio_payload_arb (fun input ->
      let p = audio_payload input in
      let reference = Audio_frame.decode p in
      (* Byte-equal to the reference round trip, and [p] itself when the
         reference leaves the frame unchanged. *)
      let matches wire expected ~unchanged =
        match (wire, reference) with
        | Some w, Some frame ->
            Payload.equal w (Audio_frame.encode (expected frame))
            && ((not (unchanged frame)) || w == p)
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      let header_ok =
        match (Wire.header p, reference) with
        | Some h, Some frame ->
            h.Wire.seq = frame.Audio_frame.seq
            && h.Wire.quality = frame.Audio_frame.quality
            && h.Wire.frames = Audio_frame.frame_count frame
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      header_ok
      && List.for_all
           (fun q ->
             matches (Wire.degrade p q)
               (fun frame -> Audio_frame.degrade frame q)
               ~unchanged:(fun frame ->
                 Audio_frame.quality_code q
                 <= Audio_frame.quality_code frame.Audio_frame.quality))
           audio_qualities
      && matches (Wire.restore p) Audio_frame.restore ~unchanged:(fun frame ->
             frame.Audio_frame.quality = Audio_frame.Stereo16))

let audio_wire_synth =
  Q.Test.make ~name:"audio: wire synth matches the reference encoding"
    ~count:300
    Q.(
      triple int
        (make Gen.(frequency [ (9, int_range 0 300); (1, int_range 65530 65540) ]))
        (int_range (-100_000) 100_000))
    (fun (seq, frames, phase) ->
      Payload.equal
        (Wire.synth ~seq ~frames ~phase)
        (Audio_frame.encode (Audio_frame.synth ~seq ~frames ~phase)))

(* The six primitives, against results computed from the reference: the
   same value, or BadAudio exactly where the reference rejects. *)
let audio_prims_match_reference =
  Q.Test.make ~name:"audio: primitives raise BadAudio exactly where the reference rejects"
    ~count:1000 audio_payload_arb (fun input ->
      let p = audio_payload input in
      let reference = Audio_frame.decode p in
      let world, _, _ = World.dummy () in
      let call name args =
        match (Planp_runtime.Prim.find_exn name).Planp_runtime.Prim.impl world args with
        | v -> Some v
        | exception Value.Planp_raise "BadAudio" -> None
      in
      let agrees name args expected =
        match (call name args, expected) with
        | Some v, Some e -> Value.equal v e
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      let from_frame f = Option.map f reference in
      let blob = Value.Vblob p in
      agrees "audioSeq" [| blob |]
        (from_frame (fun f -> Value.Vint f.Audio_frame.seq))
      && agrees "audioQuality" [| blob |]
           (from_frame (fun f ->
                Value.Vint (Audio_frame.quality_code f.Audio_frame.quality)))
      && agrees "audioFrames" [| blob |]
           (from_frame (fun f -> Value.Vint (Audio_frame.frame_count f)))
      && agrees "audioBytes" [| blob |] (Some (Value.Vint (Payload.length p)))
      && agrees "audioRestore" [| blob |]
           (from_frame (fun f ->
                Value.Vblob (Audio_frame.encode (Audio_frame.restore f))))
      && List.for_all
           (fun level ->
             agrees "audioDegrade" [| blob; Value.Vint level |]
               (Option.bind (Audio_frame.quality_of_code level) (fun q ->
                    from_frame (fun f ->
                        Value.Vblob (Audio_frame.encode (Audio_frame.degrade f q))))))
           [ -1; 0; 1; 2; 3 ])

let zipf_in_range =
  Q.Test.make ~name:"rng: zipf stays in 1..n" ~count:200
    Q.(pair (int_range 1 50) small_int)
    (fun (n, seed) ->
      let rng = Asp.Rng.create ~seed:(seed + 1) in
      let rank = Asp.Rng.zipf rng ~n ~alpha:1.0 in
      rank >= 1 && rank <= n)

let file_sizes_bounded =
  Q.Test.make ~name:"http: file sizes within catalog bounds" ~count:300
    Q.small_int
    (fun file_id ->
      let size = Asp.Http_app.file_size file_id in
      size >= 256 && size <= 262_144)

(* ---------- generated PLAN-P expressions ---------- *)

(* Closed, well-typed expressions of type int, with let-bound variables,
   conditionals, arithmetic (division always wrapped in a DivByZero
   handler), strings reduced back to ints via strlen, and primitive calls.
   Depth-bounded so generation terminates. *)

let loc = Planp.Loc.dummy
let mk d = Ast.mk loc d
let int_lit n = mk (Ast.Int n)

let rec gen_int env depth st =
  let open Q.Gen in
  let leaf =
    if env = [] then map (fun n -> int_lit n) (int_range (-50) 50)
    else
      frequency
        [ (2, map (fun n -> int_lit n) (int_range (-50) 50));
          (1, map (fun name -> mk (Ast.Var name)) (oneofl env)) ]
  in
  if depth <= 0 then leaf st
  else
    frequency
      [
        (2, leaf);
        ( 3,
          map3
            (fun op a b -> mk (Ast.Binop (op, a, b)))
            (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 1,
          (* division guarded by a handler *)
          map2
            (fun a b ->
              mk
                (Ast.Try
                   ( mk (Ast.Binop (Ast.Div, a, b)),
                     [ ("DivByZero", int_lit 999) ] )))
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 2,
          map3
            (fun c a b -> mk (Ast.If (c, a, b)))
            (gen_bool env (depth - 1))
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 2,
          (* let val v<k> = e1 in ... v<k> ... *)
          let name = Printf.sprintf "v%d" (List.length env) in
          map2
            (fun bound body ->
              mk
                (Ast.Let
                   ( [ { Ast.bind_name = name; bind_type = Planp.Ptype.Tint;
                         bind_expr = bound } ],
                     body )))
            (gen_int env (depth - 1))
            (gen_int (name :: env) (depth - 1)) );
        ( 1,
          map
            (fun a -> mk (Ast.Call ("abs", [ a ])))
            (gen_int env (depth - 1)) );
        ( 1,
          map2
            (fun a b -> mk (Ast.Call ("min", [ a; b ])))
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 1,
          map
            (fun a -> mk (Ast.Call ("strlen", [ mk (Ast.Call ("itos", [ a ])) ])))
            (gen_int env (depth - 1)) );
      ]
      st

and gen_bool env depth st =
  let open Q.Gen in
  if depth <= 0 then map (fun b -> mk (Ast.Bool b)) bool st
  else
    frequency
      [
        (1, map (fun b -> mk (Ast.Bool b)) bool);
        ( 3,
          map3
            (fun op a b -> mk (Ast.Binop (op, a, b)))
            (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Gt; Ast.Le; Ast.Ge ])
            (gen_int env (depth - 1))
            (gen_int env (depth - 1)) );
        ( 2,
          map3
            (fun op a b -> mk (Ast.Binop (op, a, b)))
            (oneofl [ Ast.And; Ast.Or ])
            (gen_bool env (depth - 1))
            (gen_bool env (depth - 1)) );
        (1, map (fun a -> mk (Ast.Unop (Ast.Not, a))) (gen_bool env (depth - 1)));
      ]
      st

let expr_arbitrary =
  Q.make
    ~print:(fun e -> Planp.Pretty.expr_to_string e)
    (Q.Gen.sized_size (Q.Gen.int_range 0 5) (fun depth -> gen_int [] depth))

let eval_three expr =
  let world, _, _ = World.dummy () in
  let reference =
    try Ok (Interp.eval_const ~world ~globals:[] expr)
    with Value.Planp_raise e -> Error e
  in
  let jit =
    try Ok (Specialize.run (Specialize.compile_expr ~globals:[] ~params:[] expr) world [])
    with Value.Planp_raise e -> Error e
  in
  let vm =
    try Ok (Vm.call (Bytecomp.compile_expr ~globals:[] ~params:[] expr) ~fn:0 world [||])
    with Value.Planp_raise e -> Error e
  in
  (reference, jit, vm)

let eval_folded expr =
  let world, _, _ = World.dummy () in
  let folded = Planp_jit.Fold.expr ~globals:[] expr in
  ( (try Ok (Interp.eval_const ~world ~globals:[] folded)
     with Value.Planp_raise e -> Error e),
    folded )

let result_equal a b =
  match (a, b) with
  | Ok va, Ok vb -> Value.equal va vb
  | Error ea, Error eb -> String.equal ea eb
  | Ok _, Error _ | Error _, Ok _ -> false

let backends_differential =
  Q.Test.make
    ~name:"backends: interpreter, JIT and VM agree on generated expressions"
    ~count:500 expr_arbitrary
    (fun expr ->
      let reference, jit, vm = eval_three expr in
      result_equal reference jit && result_equal reference vm)

let fold_differential =
  Q.Test.make
    ~name:"fold: constant folding preserves evaluation and never grows the AST"
    ~count:500 expr_arbitrary
    (fun expr ->
      let reference, _, _ = eval_three expr in
      let folded_result, folded = eval_folded expr in
      result_equal reference folded_result
      && Planp_jit.Fold.count_nodes folded <= Planp_jit.Fold.count_nodes expr)

let pretty_parse_roundtrip =
  Q.Test.make ~name:"pretty: print/parse/print is a fixed point" ~count:300
    expr_arbitrary
    (fun expr ->
      let printed = Planp.Pretty.expr_to_string expr in
      match Planp.Parser.parse_expr printed with
      | reparsed -> String.equal printed (Planp.Pretty.expr_to_string reparsed)
      | exception _ -> false)

let reparsed_evaluates_same =
  Q.Test.make ~name:"pretty: reparsed expression evaluates identically"
    ~count:300 expr_arbitrary
    (fun expr ->
      let printed = Planp.Pretty.expr_to_string expr in
      let reparsed = Planp.Parser.parse_expr printed in
      let world, _, _ = World.dummy () in
      let run e =
        try Ok (Interp.eval_const ~world ~globals:[] e)
        with Value.Planp_raise exn_name -> Error exn_name
      in
      result_equal (run expr) (run reparsed))

(* ---------- packet codec ---------- *)

let scalar_component =
  Q.Gen.oneof
    [
      Q.Gen.map (fun n -> Value.Vint n) (Q.Gen.int_range (-1000000) 1000000);
      Q.Gen.map (fun b -> Value.Vbool b) Q.Gen.bool;
      Q.Gen.map
        (fun c -> Value.Vchar (Char.chr c))
        (Q.Gen.int_range 0 255);
      Q.Gen.map (fun h -> Value.Vhost h) (Q.Gen.int_bound 0xFFFFFF);
      Q.Gen.map
        (fun s -> Value.Vstring s)
        (Q.Gen.string_size ~gen:Q.Gen.printable (Q.Gen.int_range 0 20));
    ]

let type_of_component = function
  | Value.Vint _ -> Planp.Ptype.Tint
  | Value.Vbool _ -> Planp.Ptype.Tbool
  | Value.Vchar _ -> Planp.Ptype.Tchar
  | Value.Vhost _ -> Planp.Ptype.Thost
  | Value.Vstring _ -> Planp.Ptype.Tstring
  | _ -> assert false

let codec_roundtrip =
  Q.Test.make ~name:"codec: scalar payload encode/decode roundtrip" ~count:300
    (Q.make Q.Gen.(list_size (int_range 1 6) scalar_component))
    (fun components ->
      let ip = Value.Vip { Value.vsrc = 1; vdst = 2; vttl = 33 } in
      let udp = Value.Vudp { Netsim.Packet.udp_src = 7; udp_dst = 9 } in
      let value = Value.Vtuple (Array.of_list (ip :: udp :: components)) in
      let ty =
        Planp.Ptype.Ttuple
          (Planp.Ptype.Tip :: Planp.Ptype.Tudp
          :: List.map type_of_component components)
      in
      let packet = Planp_runtime.Pkt_codec.encode ~chan:"network" value in
      match Planp_runtime.Pkt_codec.decode ty packet with
      | Some decoded -> Value.equal value decoded
      | None -> false)

(* ---------- codec: install-time decoder against the list reference ---------- *)

(* The list-based decoder [Pkt_codec.decoder] replaced, kept as the
   reference it must agree with: it re-splits the type per packet, collects
   components in a list and appends the header values in front. *)
module Reference_codec = struct
  module Ptype = Planp.Ptype
  module Packet = Netsim.Packet

  let split_type = function
    | Ptype.Ttuple (Ptype.Tip :: rest) ->
        let transport, payload =
          match rest with
          | Ptype.Ttcp :: payload -> (`Tcp, payload)
          | Ptype.Tudp :: payload -> (`Udp, payload)
          | payload -> (`Any, payload)
        in
        Some (transport, payload)
    | _ -> None

  let decode_payload components body =
    let len = Payload.length body in
    let rec go components pos acc =
      match components with
      | [] -> if pos = len then Some (List.rev acc) else None
      | Ptype.Tblob :: [] ->
          Some
            (List.rev
               (Value.Vblob (Payload.sub body ~pos ~len:(len - pos)) :: acc))
      | Ptype.Tblob :: _ -> None
      | Ptype.Tchar :: rest ->
          if pos + 1 > len then None
          else
            go rest (pos + 1)
              (Value.Vchar (Char.chr (Payload.get_u8 body pos)) :: acc)
      | Ptype.Tbool :: rest ->
          if pos + 1 > len then None
          else
            let byte = Payload.get_u8 body pos in
            if byte > 1 then None
            else go rest (pos + 1) (Value.Vbool (byte = 1) :: acc)
      | Ptype.Tint :: rest ->
          if pos + 4 > len then None
          else
            let raw = Payload.get_u32 body pos in
            let n =
              if raw land 0x80000000 <> 0 then raw - (1 lsl 32) else raw
            in
            go rest (pos + 4) (Value.Vint n :: acc)
      | Ptype.Thost :: rest ->
          if pos + 4 > len then None
          else go rest (pos + 4) (Value.Vhost (Payload.get_u32 body pos) :: acc)
      | Ptype.Tstring :: rest ->
          if pos + 2 > len then None
          else
            let slen = Payload.get_u16 body pos in
            if pos + 2 + slen > len then None
            else
              let s =
                Payload.to_string (Payload.sub body ~pos:(pos + 2) ~len:slen)
              in
              go rest (pos + 2 + slen) (Value.Vstring s :: acc)
      | ( Ptype.Tunit | Ptype.Tip | Ptype.Ttcp | Ptype.Tudp | Ptype.Ttuple _
        | Ptype.Thash _ | Ptype.Thash_any )
        :: _ ->
          None
    in
    go components 0 []

  let decode pkt_type (packet : Packet.t) =
    match split_type pkt_type with
    | None -> None
    | Some (transport, payload_components) -> (
        let transport_values =
          match (transport, packet.Packet.l4) with
          | `Tcp, Packet.Tcp header -> Some [ Value.Vtcp header ]
          | `Udp, Packet.Udp header -> Some [ Value.Vudp header ]
          | `Any, _ -> Some []
          | (`Tcp | `Udp), _ -> None
        in
        match transport_values with
        | None -> None
        | Some transport_values -> (
            match decode_payload payload_components packet.Packet.body with
            | None -> None
            | Some payload_values ->
                let ip =
                  {
                    Value.vsrc = packet.Packet.src;
                    vdst = packet.Packet.dst;
                    vttl = packet.Packet.ttl;
                  }
                in
                Some
                  (Value.Vtuple
                     (Array.of_list
                        ((Value.Vip ip :: transport_values) @ payload_values)))))
end

(* A packet type — ip, then tcp, udp or no transport, then 0-4 components,
   mostly payload types (a blob may sit anywhere) and sometimes types no
   payload can hold — with a packet for it: the exact layout, or 1-3 bytes
   short or long; bool bytes 2-255; string length prefixes that overrun;
   an l4 header that sometimes disagrees with the type. The body comes as
   a plain payload, a view into a larger string or an unforced rope. *)
let codec_case_gen =
  let open Q.Gen in
  let module Ptype = Planp.Ptype in
  let component_type =
    frequency
      [
        ( 6,
          oneofl
            [ Ptype.Tchar; Ptype.Tbool; Ptype.Tint; Ptype.Thost; Ptype.Tstring;
              Ptype.Tblob ] );
        ( 1,
          oneofl
            [ Ptype.Tunit; Ptype.Tip; Ptype.Ttcp; Ptype.Tudp;
              Ptype.Ttuple [ Ptype.Tint; Ptype.Tint ]; Ptype.Thash_any ] );
      ]
  in
  let bytes n = string_size ~gen:char (return n) in
  let field = function
    | Ptype.Tchar -> bytes 1
    | Ptype.Tbool ->
        frequency
          [
            (4, oneofl [ "\000"; "\001" ]);
            (1, map (fun b -> String.make 1 (Char.chr b)) (int_range 2 255));
          ]
    | Ptype.Tint | Ptype.Thost -> bytes 4
    | Ptype.Tstring ->
        let* text = string_size ~gen:printable (int_range 0 6) in
        let+ overrun = frequency [ (4, return 0); (1, int_range 1 5) ] in
        let prefix = Bytes.create 2 in
        Bytes.set_uint16_be prefix 0 (String.length text + overrun);
        Bytes.to_string prefix ^ text
    | _ -> string_size ~gen:char (int_range 0 6)
  in
  let* transport = oneofl [ `Tcp; `Udp; `Any ] in
  let* components = list_size (int_range 0 4) component_type in
  let* l4 = frequency [ (4, return transport); (1, oneofl [ `Tcp; `Udp; `Any ]) ] in
  let* fields = flatten_l (List.map field components) in
  let exact = String.concat "" fields in
  let* skew =
    frequency [ (3, return 0); (1, int_range (-3) (-1)); (1, int_range 1 3) ]
  in
  let* tail = bytes (Int.max 0 skew) in
  let body =
    if skew < 0 then
      String.sub exact 0 (Int.max 0 (String.length exact + skew))
    else exact ^ tail
  in
  let+ shape = int_range 0 2 in
  let transport_types =
    match transport with
    | `Tcp -> [ Ptype.Ttcp ]
    | `Udp -> [ Ptype.Tudp ]
    | `Any -> []
  in
  (Ptype.Ttuple ((Ptype.Tip :: transport_types) @ components), l4, body, shape)

let codec_case_packet (_, l4, body, shape) =
  let payload = audio_payload (body, shape) in
  let src = Netsim.Addr.of_string "10.0.0.1"
  and dst = Netsim.Addr.of_string "10.0.0.2" in
  match l4 with
  | `Tcp -> Netsim.Packet.tcp ~src ~dst ~src_port:1234 ~dst_port:80 ~seq:7 payload
  | `Udp -> Netsim.Packet.udp ~src ~dst ~src_port:53 ~dst_port:5353 payload
  | `Any -> Netsim.Packet.make ~src ~dst Netsim.Packet.Raw payload

let codec_decoder_matches_reference =
  let print (ty, l4, body, shape) =
    Printf.sprintf "%s, l4 %s, shape %d, body %S"
      (Planp.Ptype.to_string ty)
      (match l4 with `Tcp -> "tcp" | `Udp -> "udp" | `Any -> "raw")
      shape body
  in
  Q.Test.make ~name:"codec: decoder agrees with the list reference" ~count:2000
    (Q.make ~print codec_case_gen)
    (fun ((ty, _, _, _) as case) ->
      (* Fresh packets: decoding a rope forces it in place. *)
      let decoder = Planp_runtime.Pkt_codec.decoder ty in
      match
        (decoder (codec_case_packet case),
         Reference_codec.decode ty (codec_case_packet case))
      with
      | Some got, Some want -> Value.equal got want
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* Feed random bytes to the front end: it must either parse or raise the
   documented Error exceptions — never crash, never loop. *)
let frontend_fuzz =
  Q.Test.make ~name:"frontend: random input never crashes lexer/parser"
    ~count:1000
    Q.(string_gen_of_size (Q.Gen.int_range 0 80) (Q.Gen.char_range '\000' '\255'))
    (fun junk ->
      match Planp.Parser.parse junk with
      | _ -> true
      | exception Planp.Lexer.Error _ -> true
      | exception Planp.Parser.Error _ -> true)

(* Near-miss fuzzing: mutate a valid program by one byte. *)
let frontend_mutation_fuzz =
  let base =
    Asp.Http_asp.gateway_program ~vip:"10.3.0.100"
      ~servers:("10.3.0.1", "10.3.0.2") ()
  in
  Q.Test.make ~name:"frontend: one-byte mutations never crash the pipeline"
    ~count:500
    Q.(pair (int_bound (String.length base - 1)) (int_range 1 255))
    (fun (pos, delta) ->
      let mutated = Bytes.of_string base in
      Bytes.set mutated pos
        (Char.chr ((Char.code (Bytes.get mutated pos) + delta) mod 256));
      let source = Bytes.to_string mutated in
      match Extnet.check_source source with
      | Ok checked ->
          (* If it still type checks, the verifier must not crash either. *)
          ignore
            (Planp_analysis.Verifier.verify checked.Planp.Typecheck.program);
          true
      | Error _ -> true)

let flowstat_rate_nonnegative =
  Q.Test.make ~name:"flowstat: rate is nonnegative and bounded by input"
    ~count:200
    Q.(list_of_size (Q.Gen.int_range 0 50) (pair (float_bound_inclusive 10.0) (int_bound 5000)))
    (fun samples ->
      let stat = Netsim.Flowstat.create ~window:1.0 () in
      let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) samples in
      List.iter (fun (t, b) -> Netsim.Flowstat.record stat ~now:t b) sorted;
      let rate = Netsim.Flowstat.rate_bps stat ~now:10.0 in
      let total_bits = 8 * List.fold_left (fun acc (_, b) -> acc + b) 0 sorted in
      rate >= 0.0 && rate <= float_of_int total_bits /. 1.0 +. 1e-6)

let () =
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [
        addr_roundtrip;
        sched_matches_reference_model;
        bucket_int_float_parity;
        payload_u32_roundtrip;
        audio_frame_roundtrip;
        audio_degrade_size;
        audio_wire_matches_reference;
        audio_wire_synth;
        audio_prims_match_reference;
        zipf_in_range;
        file_sizes_bounded;
        backends_differential;
        fold_differential;
        pretty_parse_roundtrip;
        reparsed_evaluates_same;
        codec_roundtrip;
        codec_decoder_matches_reference;
        frontend_fuzz;
        frontend_mutation_fuzz;
        flowstat_rate_nonnegative;
      ]
  in
  Alcotest.run "properties" [ ("qcheck", suite) ]
