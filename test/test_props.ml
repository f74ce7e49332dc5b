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

(* The generated-program, decoder-fuzz, line-format, audio wire-kernel,
   payload concatenation, int-table and scheduler properties run
   [prop_scale] times their default case count when PLANP_PROP_SCALE is
   set (CI's release job sets 10), so a local [dune runtest] stays
   fast. *)
let prop_scale =
  match Option.bind (Sys.getenv_opt "PLANP_PROP_SCALE") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

(* ---------- simple invariants ---------- *)

let addr_roundtrip =
  Q.Test.make ~name:"addr: octets roundtrip through string" ~count:500
    Q.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
      let addr = Netsim.Addr.of_octets a b c d in
      Netsim.Addr.of_string (Netsim.Addr.to_string addr) = addr)

let sched_matches_reference_model =
  (* Differential test of the calendar queue against a sorted-list model
     under random interleavings of add and pop, in four schedule shapes:
     - a coarse grid of absolute times, so equal-time ties are frequent
       (exercising FIFO order);
     - a far-future insert into the idle queue, then inserts due earlier;
     - bursts of dense traffic separated by long quiet gaps;
     - a fixed hold distance: every pop re-adds one event a hop later.
     [`After d] adds an event due [d] after the last popped time.  The
     wheel has 8 buckets (constant overflow, migration and re-fits) or
     the default 256. *)
  let open Q.Gen in
  let grid =
    list_size (int_range 0 200)
      (frequency
         [ (3, map (fun n -> `Add (float_of_int n /. 4.0)) (int_bound 40));
           (2, return `Pop) ])
  in
  let ms n = float_of_int n *. 1e-3 in
  let far_first =
    let* far = float_range 5.0 20.0 in
    let* early = list_size (int_range 1 100) (map (fun n -> `Add (ms n)) (int_bound 200)) in
    let* rest =
      list_size (int_range 0 300)
        (frequency [ (1, map (fun n -> `After (ms n)) (int_bound 50)); (1, return `Pop) ])
    in
    return ((`Add far :: early) @ rest)
  in
  let burst =
    let* quiet = float_range 0.3 2.0 in
    let* ops =
      list_size (int_range 20 80)
        (frequency [ (3, map (fun n -> `After (ms n)) (int_bound 5)); (2, return `Pop) ])
    in
    return ((`After quiet :: ops) @ List.init 100 (fun _ -> `Pop))
  in
  let bursts = map List.concat (list_size (int_range 1 5) burst) in
  let hold =
    let* flows = int_range 1 50 in
    let* hop = oneof [ return 1.1024e-3; float_range 1e-4 1e-2 ] in
    let* hops = int_range 0 300 in
    return
      (List.init flows (fun i -> `Add (float_of_int (i + 1) *. 1e-6))
      @ List.concat (List.init hops (fun _ -> [ `Pop; `After hop ])))
  in
  Q.Test.make ~name:"sched: interleaved add/pop matches sorted reference"
    ~count:(300 * prop_scale)
    (Q.make
       (pair (oneofl [ 8; 256 ]) (oneof [ grid; far_first; bursts; hold ])))
    (fun (nbuckets, ops) ->
      let sched = Netsim.Sched.create ~nbuckets ~dummy:(-1) () in
      let cell = { Netsim.Sched.v = 0.0 } in
      let model = ref [] (* sorted by (time, insertion order) *) in
      let now = ref 0.0 in
      let next = ref 0 in
      let add time =
        let id = !next in
        incr next;
        Netsim.Sched.add sched ~time id;
        let rec ins = function
          | (t', id') :: rest when t' <= time -> (t', id') :: ins rest
          | rest -> (time, id) :: rest
        in
        model := ins !model;
        true
      in
      List.for_all
        (fun op ->
          match op with
          | `Add time -> add time
          | `After d -> add (!now +. d)
          | `Pop -> (
              match !model with
              | [] -> Netsim.Sched.is_empty sched
              | (t, id) :: rest ->
                  model := rest;
                  now := t;
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

(* Random nested concatenations of strings and views. A leaf is [text]
   held in [storage]: the string itself ([pad = 0]) or a copy padded with
   [pad] bytes in front, read through a view. The property builds a
   fresh, unforced payload for every read, so a read that forces one
   node cannot hide how the next read would have gone on a rope. *)
type payload_tree =
  | Leaf of { text : string; storage : string; pad : int }
  | Cat of payload_tree list

let payload_tree_gen =
  let open Q.Gen in
  let leaf =
    let* text = string_size ~gen:char (int_range 0 9) in
    let+ pad = frequency [ (1, return 0); (1, int_range 1 3) ] in
    let storage = if pad = 0 then text else String.make pad '<' ^ text ^ ">" in
    Leaf { text; storage; pad }
  in
  sized_size (int_range 0 3)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [ (1, leaf);
               (2, map (fun l -> Cat l) (list_size (int_range 1 4) (self (depth - 1)))) ])

let rec payload_tree_leaves = function
  | Leaf { text; storage; pad } -> [ (text, storage, pad) ]
  | Cat parts -> List.concat_map payload_tree_leaves parts

let rec payload_of_tree = function
  | Leaf { storage; pad = 0; _ } -> Payload.of_string storage
  | Leaf { text; storage; pad } ->
      Payload.sub (Payload.of_string storage) ~pos:pad ~len:(String.length text)
  | Cat parts -> Payload.concat (List.map payload_of_tree parts)

let payload_concat_reads_in_place =
  Q.Test.make ~name:"payload: reads on nested concatenations match the flat bytes"
    ~count:(300 * prop_scale)
    (Q.make ~print:(fun tree ->
         String.concat " | "
           (List.map (fun (text, _, pad) -> Printf.sprintf "%S+%d" text pad)
              (payload_tree_leaves tree)))
       payload_tree_gen)
    (fun tree ->
      let leaves = payload_tree_leaves tree in
      let flat = String.concat "" (List.map (fun (text, _, _) -> text) leaves) in
      let len = String.length flat in
      let fresh () = payload_of_tree tree in
      let byte i = Char.code flat.[i] in
      let reads_agree =
        List.for_all
          (fun off ->
            (off + 1 > len || Payload.get_u8 (fresh ()) off = byte off)
            && (off + 2 > len
               || Payload.get_u16 (fresh ()) off = (byte off lsl 8) lor byte (off + 1))
            && (off + 4 > len
               || Payload.get_u32 (fresh ()) off
                  = (byte off lsl 24) lor (byte (off + 1) lsl 16)
                    lor (byte (off + 2) lsl 8) lor byte (off + 3)))
          (List.init len Fun.id)
      in
      let window_agrees pos wlen =
        let base, off = Payload.window (fresh ()) ~pos ~len:wlen in
        off >= 0
        && off + wlen <= String.length base
        && String.sub base off wlen = String.sub flat pos wlen
        && Payload.to_string (Payload.sub (fresh ()) ~pos ~len:wlen)
           = String.sub flat pos wlen
      in
      let windows_agree =
        List.for_all
          (fun pos ->
            List.for_all
              (fun wlen -> wlen > len - pos || window_agrees pos wlen)
              [ 0; 1; 2; 3; 4; 7; 11; len - pos ])
          (List.init (len + 1) Fun.id)
      in
      (* A window or a slice inside one leaf is that leaf's own storage:
         nothing was flattened. *)
      let _, in_part =
        List.fold_left
          (fun (start, ok) (text, storage, pad) ->
            let n = String.length text in
            let ok =
              ok
              && List.for_all
                   (fun (lo, hi) ->
                     let pos = start + lo and len = hi - lo in
                     let in_storage (base, off) = base == storage && off = pad + lo in
                     in_storage (Payload.window (fresh ()) ~pos ~len)
                     && in_storage
                          (Payload.window (Payload.sub (fresh ()) ~pos ~len) ~pos:0 ~len))
                   (if n = 0 then [] else [ (0, n); (n / 2, n); (0, (n + 1) / 2) ])
            in
            (start + n, ok))
          (0, true) leaves
      in
      reads_agree && windows_agree && in_part)

(* [Netsim.Int_table] against an association list, most recent binding
   first, under random add, replace, remove and find. Keys are host
   addresses [10.a.b.1] that differ only in their middle octets, the
   shape that defeats an identity hash; the table starts at one bucket,
   so it resizes on the way. *)
let int_table_matches_model =
  let open Q.Gen in
  let key = map2 (fun a b -> Netsim.Addr.of_octets 10 a b 1) (int_bound 7) (int_bound 7) in
  let op =
    frequency
      [ (3, map2 (fun k v -> `Add (k, v)) key (int_bound 99));
        (3, map2 (fun k v -> `Replace (k, v)) key (int_bound 99));
        (2, map (fun k -> `Remove k) key);
        (2, map (fun k -> `Find k) key) ]
  in
  let print_op = function
    | `Add (k, v) -> Printf.sprintf "add %s %d" (Netsim.Addr.to_string k) v
    | `Replace (k, v) -> Printf.sprintf "replace %s %d" (Netsim.Addr.to_string k) v
    | `Remove k -> "remove " ^ Netsim.Addr.to_string k
    | `Find k -> "find " ^ Netsim.Addr.to_string k
  in
  Q.Test.make ~name:"int_table: add/replace/remove/find match an association list"
    ~count:(300 * prop_scale)
    (Q.make ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       (list_size (int_range 0 300) op))
    (fun ops ->
      let table = Netsim.Int_table.create 1 in
      let rec remove_first k = function
        | [] -> []
        | (k', _) :: rest when k' = k -> rest
        | binding :: rest -> binding :: remove_first k rest
      in
      let step model = function
        | `Add (k, v) ->
            Netsim.Int_table.add table k v;
            (k, (k, v) :: model)
        | `Replace (k, v) ->
            Netsim.Int_table.replace table k v;
            (k, if List.mem_assoc k model then (k, v) :: remove_first k model
                else (k, v) :: model)
        | `Remove k ->
            Netsim.Int_table.remove table k;
            (k, remove_first k model)
        | `Find k -> (k, model)
      in
      let agrees model k =
        Netsim.Int_table.find_opt table k = List.assoc_opt k model
        && Netsim.Int_table.find_all table k
           = List.filter_map (fun (k', v) -> if k' = k then Some v else None) model
        && Netsim.Int_table.length table = List.length model
      in
      let final =
        List.fold_left
          (fun model op ->
            match model with
            | None -> None
            | Some model ->
                let k, model = step model op in
                if agrees model k then Some model else None)
          (Some []) ops
      in
      match final with
      | None -> false
      | Some model ->
          List.for_all
            (fun a -> List.for_all (fun b -> agrees model (Netsim.Addr.of_octets 10 a b 1))
                        (List.init 8 Fun.id))
            (List.init 8 Fun.id))

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
    ~count:(2000 * prop_scale) audio_payload_arb (fun input ->
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

(* [Wire.synth] takes a frame of at most one period of the stream,
   7,400 samples (lcm of the triangle's 200 and the wobble's 37), from a
   phase >= 0 as a view into a two-period table; a longer frame or one
   that starts below sample 0 is copied, with the formula below 0. A
   share of the frame counts sit around 7,400, so both paths run, and a
   share of the phases puts a frame across a seam: within [frames] of 0
   or of a multiple of 7,400. *)
let audio_wire_synth =
  let gen =
    let open Q.Gen in
    let* seq = int in
    let* frames =
      frequency
        [ (7, int_range 0 300); (2, int_range 7_390 7_410); (1, int_range 65530 65540) ]
    in
    let near anchor = map (fun d -> anchor + d) (int_range (-frames) frames) in
    let+ phase =
      frequency
        [
          (2, int_range (-100_000) 100_000);
          (1, near 0);
          (1, int_range (-13) 13 >>= fun m -> near (m * 7_400));
        ]
    in
    (seq, frames, phase)
  in
  Q.Test.make ~name:"audio: wire synth matches the reference encoding"
    ~count:(300 * prop_scale)
    (Q.make
       ~print:(fun (seq, frames, phase) ->
         Printf.sprintf "seq %d, frames %d, phase %d" seq frames phase)
       gen)
    (fun (seq, frames, phase) ->
      Payload.equal
        (Wire.synth ~seq ~frames ~phase)
        (Audio_frame.encode (Audio_frame.synth ~seq ~frames ~phase)))

(* The six primitives, against results computed from the reference: the
   same value, or BadAudio exactly where the reference rejects. *)
let audio_prims_match_reference =
  Q.Test.make ~name:"audio: primitives raise BadAudio exactly where the reference rejects"
    ~count:(1000 * prop_scale) audio_payload_arb (fun input ->
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
  (* Annotate the expression with its types, so the JIT picks its typed
     templates as it does for checked programs. *)
  (match
     Planp.Typecheck.check_expr ~prims:Planp_runtime.Prim.type_lookup ~vals:[] expr
   with
  | Ok _ -> ()
  | Error e -> failwith (Format.asprintf "%a" Planp.Typecheck.pp_error e));
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

let result_equal a b =
  match (a, b) with
  | Ok va, Ok vb -> Value.equal va vb
  | Error ea, Error eb -> String.equal ea eb
  | Ok _, Error _ | Error _, Ok _ -> false

let backends_differential =
  Q.Test.make
    ~name:"backends: interpreter, JIT and VM agree on generated expressions"
    ~count:(500 * prop_scale) expr_arbitrary
    (fun expr ->
      let reference, jit, vm = eval_three expr in
      result_equal reference jit && result_equal reference vm)

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

(* ---------- whole programs: every backend on generated channels ---------- *)

(* The generator writes PLAN-P source. Its types: the values an
   expression can have, plus the header variables a channel binds. *)
type gty = Gint | Gbool | Ghost | Gchar | Gstr | Gtuple of gty list | Gip | Gudp | Gtcp

let rec gty_source = function
  | Gint -> "int"
  | Gbool -> "bool"
  | Ghost -> "host"
  | Gchar -> "char"
  | Gstr -> "string"
  | Gtuple tys -> "(" ^ String.concat "*" (List.map gty_source tys) ^ ")"
  | Gip -> "ip"
  | Gudp -> "udp"
  | Gtcp -> "tcp"

(* A reachable table: a global, or the channel state [ss]. *)
type gtable = { tname : string; tkey : gty list; tvalue : gty }

let global_tables =
  [
    { tname = "tInt"; tkey = [ Gint ]; tvalue = Gint };
    { tname = "tHost"; tkey = [ Ghost ]; tvalue = Gbool };
    { tname = "tFlat"; tkey = [ Gint; Gbool; Gchar ]; tvalue = Gstr };
    { tname = "tStr"; tkey = [ Gstr; Gint ]; tvalue = Gint };
  ]

type genv = {
  vars : (string * gty) list;
  tables : gtable list;
  funs : (string * gty list * gty) list;  (* name, parameters, result *)
  fresh : int ref;
}

let rec gen_expr env ty depth : string Q.Gen.t =
  let open Q.Gen in
  let vars_of ty = List.filter (fun (_, t) -> t = ty) env.vars in
  (* [#i v] for a tuple variable with a component of type [ty]. *)
  let projections =
    List.concat_map
      (fun (name, t) ->
        match t with
        | Gtuple tys ->
            List.concat
              (List.mapi
                 (fun i c -> if c = ty then [ Printf.sprintf "#%d %s" (i + 1) name ] else [])
                 tys)
        | _ -> [])
      env.vars
  in
  let has ty = List.exists (fun (_, t) -> t = ty) env.vars in
  let sub ty = gen_expr env ty (depth - 1) in
  let literal =
    match ty with
    | Gint -> map string_of_int (int_range (-3) 40)
    | Gbool -> map string_of_bool bool
    | Ghost -> map (Printf.sprintf "10.0.0.%d") (int_range 1 6)
    | Gchar -> map (Printf.sprintf "'%c'") (char_range 'a' 'e')
    | Gstr -> oneofl [ "\"\""; "\"a\""; "\"bc\""; "\"abc\"" ]
    | Gtuple _ | Gip | Gudp | Gtcp -> assert false
  in
  let leaves =
    (2, literal)
    :: (if vars_of ty = [] then [] else [ (4, map fst (oneofl (vars_of ty))) ])
    @ if projections = [] then [] else [ (2, oneofl projections) ]
  in
  if depth <= 0 then frequency leaves
  else
    let tables_with value = List.filter (fun t -> t.tvalue = value) env.tables in
    let calls =
      List.filter_map
        (fun (name, params, result) ->
          let arguments = flatten_l (List.map sub params) in
          let call = map (fun args -> Printf.sprintf "%s(%s)" name (String.concat ", " args)) arguments in
          match result with
          | r when r = ty -> Some (1, call)
          | Gtuple rs when List.mem ty rs ->
              let i = ref 0 in
              List.iteri (fun j r -> if r = ty && !i = 0 then i := j + 1) rs;
              Some (1, map (Printf.sprintf "#%d %s" !i) call)
          | _ -> None)
        env.funs
    in
    let table_get =
      match tables_with ty with
      | [] -> []
      | ts ->
          [ ( 3,
              oneofl ts >>= fun t ->
              map2 (Printf.sprintf "tblGet(%s, %s, %s)" t.tname) (gen_key env t (depth - 1)) (sub ty) ) ]
    in
    let control =
      [
        (1, map3 (Printf.sprintf "(if %s then %s else %s)") (gen_expr env Gbool (depth - 1)) (sub ty) (sub ty));
        ( 1,
          oneofl [ Gint; Ghost; Gbool; Gstr ] >>= fun bty ->
          let name = Printf.sprintf "v%d" (incr env.fresh; !(env.fresh)) in
          map2
            (fun bound body -> Printf.sprintf "(let val %s : %s = %s in %s end)" name (gty_source bty) bound body)
            (gen_expr env bty (depth - 1))
            (gen_expr { env with vars = (name, bty) :: env.vars } ty (depth - 1)) );
      ]
    in
    let specific =
      match ty with
      | Gint ->
          [
            (3, map3 (Printf.sprintf "(%s %s %s)") (sub Gint) (oneofl [ "+"; "-"; "*" ]) (sub Gint));
            (1, map3 (Printf.sprintf "(%s %s %s)") (sub Gint) (oneofl [ "/"; "mod" ]) (map string_of_int (int_range (-1) 3)));
            (1, map2 (Printf.sprintf "(try %s handle DivByZero => %s end)") (map2 (Printf.sprintf "(%s / %s)") (sub Gint) (sub Gint)) (sub Gint));
            (1, map (Printf.sprintf "strlen(%s)") (sub Gstr));
            (1, map (Printf.sprintf "charPos(%s)") (sub Gchar));
            (1, map (Printf.sprintf "hostBits(%s)") (sub Ghost));
            (1, map2 (Printf.sprintf "min(%s, %s)") (sub Gint) (sub Gint));
            (1, map (fun t -> Printf.sprintf "tblSize(%s)" t.tname) (oneofl env.tables));
          ]
          @ (if has Gudp then [ (2, oneofl [ "udpSrc(udph)"; "udpDst(udph)" ]) ] else [])
          @ (if has Gtcp then [ (2, oneofl [ "tcpSrc(tcph)"; "tcpDst(tcph)"; "tcpSeq(tcph)"; "tcpAck(tcph)" ]) ] else [])
          @ if has Gip then [ (1, return "ipTtl(iph)") ] else []
      | Gbool ->
          let compare cty ops =
            map3 (fun a op b -> Printf.sprintf "(%s %s %s)" a op b) (gen_expr env cty (depth - 1)) (oneofl ops) (gen_expr env cty (depth - 1))
          in
          [
            (3, compare Gint [ "="; "<>"; "<"; ">"; "<="; ">=" ]);
            (1, compare Ghost [ "="; "<>" ]);
            (1, compare Gbool [ "="; "<>" ]);
            (1, compare Gchar [ "="; "<"; ">=" ]);
            (1, compare Gstr [ "="; "<>"; "<" ]);
            (2, map3 (Printf.sprintf "(%s %s %s)") (sub Gbool) (oneofl [ "andalso"; "orelse" ]) (sub Gbool));
            (1, map (Printf.sprintf "(not %s)") (sub Gbool));
            (1, map (Printf.sprintf "even(%s)") (sub Gint));
            ( 3,
              oneofl env.tables >>= fun t ->
              map (Printf.sprintf "tblMem(%s, %s)" t.tname) (gen_key env t (depth - 1)) );
          ]
          @ if has Gtcp then [ (1, oneofl [ "tcpSyn(tcph)"; "tcpFin(tcph)"; "tcpIsAck(tcph)" ]) ] else []
      | Ghost -> if has Gip then [ (3, oneofl [ "ipSrc(iph)"; "ipDst(iph)" ]) ] else []
      | Gchar -> [ (1, map (Printf.sprintf "(try chr(%s) handle BadChar => 'z' end)") (sub Gint)) ]
      | Gstr ->
          [
            (2, map (Printf.sprintf "itos(%s)") (sub Gint));
            (1, map (Printf.sprintf "htos(%s)") (sub Ghost));
            (1, map2 (Printf.sprintf "(%s ^ %s)") (sub Gstr) (sub Gstr));
          ]
      | Gtuple _ | Gip | Gudp | Gtcp -> []
    in
    frequency (leaves @ calls @ table_get @ control @ specific)

(* A key for table [t]: a scalar expression, a tuple literal, or a
   tuple variable of the key's type. *)
and gen_key env t depth =
  let open Q.Gen in
  match t.tkey with
  | [ k ] -> gen_expr env k depth
  | ks ->
      let literal =
        map (fun es -> "(" ^ String.concat ", " es ^ ")") (flatten_l (List.map (fun k -> gen_expr env k depth) ks))
      in
      let vars = List.filter (fun (_, ty) -> ty = Gtuple ks) env.vars in
      if vars = [] then literal else frequency [ (1, literal); (2, map fst (oneofl vars)) ]

(* Unit-typed statements: table writes, prints, emissions, deliveries,
   raises, and the control forms around them. *)
let rec gen_stmt env ~packet depth : string Q.Gen.t =
  let open Q.Gen in
  let e ty = gen_expr env ty 2 in
  let leaf =
    [
      ( 5,
        oneofl env.tables >>= fun t ->
        map2 (Printf.sprintf "tblSet(%s, %s, %s)" t.tname) (gen_key env t 1) (e t.tvalue) );
      ( 2,
        oneofl env.tables >>= fun t ->
        map (Printf.sprintf "tblRemove(%s, %s)" t.tname) (gen_key env t 1) );
      ( 1,
        map2
          (fun n t -> if n = 0 then Printf.sprintf "tblClear(%s)" t.tname else "print(\"-;\")")
          (int_bound 6) (oneofl env.tables) );
      (3, map (Printf.sprintf "print(%s ^ \";\")") (e Gstr));
      (1, map (Printf.sprintf "print(itos(%s) ^ \";\")") (e Gint));
      (1, map (Printf.sprintf "(if %s then raise Boom else ())") (e Gbool));
    ]
    @
    match packet with
    | `Udp ->
        [
          ( 2,
            map2
              (fun (h, port) (n, (b, (c, str))) ->
                Printf.sprintf "OnRemote(network, (ipDestSet(iph, %s), udpSrcSet(udph, %s), %s, %s, %s, %s))" h port n b c str)
              (pair (e Ghost) (e Gint))
              (pair (e Gint) (pair (e Gbool) (pair (e Gchar) (e Gstr)))) );
          (1, return "deliver(p)");
        ]
    | `Tcp ->
        [
          ( 2,
            map2 (Printf.sprintf "OnRemote(network, (ipSrcSet(iph, %s), tcpDstSet(tcph, %s), #3 p))") (e Ghost) (e Gint) );
          (1, return "deliver(p)");
        ]
    | `None -> []
  in
  if depth <= 0 then frequency leaf
  else
    let block = gen_block env ~packet (depth - 1) in
    frequency
      (leaf
      @ [
          (2, map3 (Printf.sprintf "(if %s then %s else %s)") (e Gbool) block block);
          ( 1,
            map2 (Printf.sprintf "(try %s handle DivByZero => print(\"dz;\"), Boom => %s end)")
              block block );
          ( 2,
            oneofl [ Gtuple [ Ghost; Gint ]; Gtuple [ Gint; Gbool; Gchar ]; Gtuple [ Gstr; Gint ]; Gint; Ghost ] >>= fun bty ->
            let name = Printf.sprintf "k%d" (incr env.fresh; !(env.fresh)) in
            let bound =
              match bty with
              | Gtuple tys -> map (fun es -> "(" ^ String.concat ", " es ^ ")") (flatten_l (List.map e tys))
              | ty -> e ty
            in
            map2
              (Printf.sprintf "(let val %s : %s = %s in %s end)" name (gty_source bty))
              bound
              (gen_block { env with vars = (name, bty) :: env.vars } ~packet (depth - 1)) );
        ])

and gen_block env ~packet depth =
  Q.Gen.(
    map (fun stmts -> "(" ^ String.concat "; " stmts ^ ")")
      (list_size (int_range 1 3) (gen_stmt env ~packet depth)))

let gen_program =
  let open Q.Gen in
  let fresh = ref 0 in
  let globals = [ ("k0", Gint); ("h0", Ghost); ("s0", Gstr) ] in
  let base = { vars = globals; tables = global_tables; funs = []; fresh } in
  let fun_env params funs = { base with vars = params @ globals; funs } in
  let f1 = ("f1", [ Gint; Ghost ], Gint) in
  let f2 = ("f2", [ Gint; Gstr ], Gbool) in
  let f3 = ("f3", [ Gchar; Gint ], Gtuple [ Gstr; Gint ]) in
  let* k0 = int_range 0 9 in
  let* h0 = int_range 1 6 in
  let* s0 = oneofl [ "a"; "xy" ] in
  let* sizes = list_repeat 5 (int_range 1 8) in
  let* f1_body = gen_expr (fun_env [ ("a", Gint); ("b", Ghost) ] []) Gint 3 in
  let* f2_body = gen_expr (fun_env [ ("x", Gint); ("s", Gstr) ] [ f1 ]) Gbool 3 in
  let* f3_str = gen_expr (fun_env [ ("c", Gchar); ("k", Gint) ] [ f1; f2 ]) Gstr 2 in
  let* f3_int = gen_expr (fun_env [ ("c", Gchar); ("k", Gint) ] [ f1; f2 ]) Gint 2 in
  let funs = [ f1; f2; f3 ] in
  let udp_env =
    {
      base with
      vars =
        [ ("iph", Gip); ("udph", Gudp); ("n", Gint); ("flag", Gbool); ("c", Gchar); ("str", Gstr);
          ("count", Gint); ("tag", Gstr) ]
        @ globals;
      tables = { tname = "ss"; tkey = [ Ghost; Gint ]; tvalue = Gint } :: global_tables;
      funs;
    }
  in
  let tcp_env =
    {
      base with
      vars = [ ("iph", Gip); ("tcph", Gtcp); ("count", Gint); ("tag", Gstr) ] @ globals;
      tables = { tname = "ss"; tkey = [ Gstr ]; tvalue = Gint } :: global_tables;
      funs;
    }
  in
  let* udp_body = list_size (int_range 2 6) (gen_stmt udp_env ~packet:`Udp 2) in
  let* udp_count = gen_expr udp_env Gint 2 in
  let* udp_tag = gen_expr udp_env Gstr 1 in
  let* tcp_body = list_size (int_range 1 4) (gen_stmt tcp_env ~packet:`Tcp 2) in
  let* tcp_count = gen_expr tcp_env Gint 2 in
  return
    (Printf.sprintf
       {|exception Boom
val k0 : int = %d
val h0 : host = 10.0.0.%d
val s0 : string = "%s"
val tInt : (int, int) hash_table = mkTable(%d)
val tHost : (host, bool) hash_table = mkTable(%d)
val tFlat : (int*bool*char, string) hash_table = mkTable(%d)
val tStr : (string*int, int) hash_table = mkTable(%d)

fun f1(a : int, b : host) : int = %s
fun f2(x : int, s : string) : bool = %s
fun f3(c : char, k : int) : string*int = (%s, %s)

protostate int*string = (0, "")

channel network(ps : int*string, ss : ((host*int), int) hash_table,
                p : ip*udp*int*bool*char*string)
initstate mkTable(%d) is
  let
    val iph : ip = #1 p
    val udph : udp = #2 p
    val n : int = #3 p
    val flag : bool = #4 p
    val c : char = #5 p
    val str : string = #6 p
    val count : int = #1 ps
    val tag : string = #2 ps
  in
    (%s;
     ((%s, %s), ss))
  end

channel network(ps : int*string, ss : (string, int) hash_table, p : ip*tcp*blob)
initstate mkTable(2) is
  let
    val iph : ip = #1 p
    val tcph : tcp = #2 p
    val count : int = #1 ps
    val tag : string = #2 ps
  in
    (%s;
     ((%s, tag), ss))
  end
|}
       k0 h0 s0 (List.nth sizes 0) (List.nth sizes 1) (List.nth sizes 2) (List.nth sizes 3)
       f1_body f2_body f3_str f3_int (List.nth sizes 4)
       (String.concat ";\n     " udp_body) udp_count udp_tag
       (String.concat ";\n     " tcp_body) tcp_count)

(* A random packet stream: mostly packets of the UDP channel's layout,
   some TCP packets, and some UDP packets too short to decode (left to
   standard IP processing). *)
let gen_packet =
  let open Q.Gen in
  let addr = map (fun n -> Netsim.Addr.of_string (Printf.sprintf "10.0.0.%d" n)) (int_range 1 6) in
  frequency
    [
      ( 8,
        map3
          (fun (src, dst) (sport, dport) (n, (flag, (c, str))) ->
            Planp_runtime.Pkt_codec.encode ~chan:"network"
              (Value.Vtuple
                 [|
                   Value.Vip { Value.vsrc = src; vdst = dst; vttl = 64 };
                   Value.Vudp { Netsim.Packet.udp_src = sport; udp_dst = dport };
                   Value.Vint n; Value.vbool flag; Value.Vchar c; Value.Vstring str;
                 |]))
          (pair addr addr)
          (pair (int_range 0 4) (int_range 0 4))
          (pair (int_range 0 300) (pair bool (pair (char_range 'a' 'e') (oneofl [ ""; "a"; "bc" ])))) );
      ( 2,
        map3
          (fun (src, dst) (sport, seq) syn ->
            Netsim.Packet.tcp ~src ~dst ~src_port:sport ~dst_port:80 ~seq ~syn
              (Payload.of_string "GET /"))
          (pair addr addr) (pair (int_range 1000 1010) (int_range 0 5)) bool );
      ( 1,
        map
          (fun (src, dst) -> Netsim.Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 (Payload.of_string "x"))
          (pair addr addr) );
    ]

let describe_packet (p : Netsim.Packet.t) =
  Printf.sprintf "%s>%s ttl=%d %s [%s]" (Netsim.Addr.to_string p.Netsim.Packet.src)
    (Netsim.Addr.to_string p.Netsim.Packet.dst) p.Netsim.Packet.ttl
    (match p.Netsim.Packet.l4 with
    | Netsim.Packet.Udp u -> Printf.sprintf "udp %d>%d" u.Netsim.Packet.udp_src u.Netsim.Packet.udp_dst
    | Netsim.Packet.Tcp t ->
        Printf.sprintf "tcp %d>%d seq=%d syn=%b" t.Netsim.Packet.tcp_src t.Netsim.Packet.tcp_dst
          t.Netsim.Packet.tcp_seq t.Netsim.Packet.tcp_syn
    | Netsim.Packet.Raw -> "raw")
    (String.escaped (Payload.to_string p.Netsim.Packet.body))

(* One run of [source] on a fresh node: what left it, what it delivered,
   what it printed, its final states and its runtime counts. *)
let run_program backend source packets =
  let engine = Netsim.Engine.create () in
  let node = Netsim.Node.create engine ~name:"gen" ~addr:(Netsim.Addr.of_string "10.0.0.9") in
  let sent = ref [] and delivered = ref [] in
  let out = Netsim.Node.add_iface node ~name:"out" (fun ~l2_dst:_ p -> sent := describe_packet p :: !sent; true) in
  Netsim.Routing.set_default (Netsim.Node.routing node) (Some { Netsim.Routing.ifindex = out; next_hop = None });
  let record _ p = delivered := describe_packet p :: !delivered in
  Netsim.Node.on_udp_default node record;
  Netsim.Node.on_tcp_default node record;
  let rt = Planp_runtime.Runtime.attach node in
  match Planp_runtime.Runtime.install ~backend rt ~source () with
  | Error e -> Error (Planp_runtime.Runtime.error_to_string e)
  | Ok program ->
      List.iter (fun p -> Planp_runtime.Runtime.inject rt p; Netsim.Engine.run engine) packets;
      let stats = Planp_runtime.Runtime.stats rt in
      let state name i =
        Option.fold ~none:"-" ~some:Value.to_string (Planp_runtime.Runtime.channel_state program name i)
      in
      Ok
        ( List.rev !sent,
          List.rev !delivered,
          Planp_runtime.Runtime.output rt,
          ( Value.to_string (Planp_runtime.Runtime.proto_state program),
            state "network" 0,
            state "network" 1 ),
          (stats.Planp_runtime.Runtime.handled, stats.fallthrough, stats.errors) )

let backends_program_differential =
  Q.Test.make
    ~name:"programs: interp, VM and JIT agree"
    ~count:(60 * prop_scale)
    (Q.make
       ~print:(fun (source, packets) ->
         Printf.sprintf "%s\n-- %d packets:\n%s" source (List.length packets)
           (String.concat "\n" (List.map describe_packet packets)))
       Q.Gen.(pair gen_program (list_size (int_range 20 150) gen_packet)))
    (fun (source, packets) ->
      let reference = run_program Planp_runtime.Interp.backend source packets in
      (match reference with
      | Error message -> Q.Test.fail_reportf "generated program rejected: %s" message
      | Ok _ -> ());
      List.for_all
        (fun backend ->
          run_program backend source packets = reference
          || Q.Test.fail_reportf "%s disagrees with the interpreter"
               backend.Planp_runtime.Backend.backend_name)
        (Planp_jit.Backends.all ()))

(* ---------- tables against an association-list model ---------- *)

module Ptype = Planp.Ptype
module Prim = Planp_runtime.Prim

type table_op =
  | Tset of Value.t * int
  | Tget of Value.t
  | Tmem of Value.t
  | Tremove of Value.t
  | Tsize
  | Tclear

(* Each keyed operation goes through the boxed entry (the interpreter's
   and the VM's path) or, for a flat key type, the typed entry with the
   key as parts (the JIT's path), at random: both reach one table. *)
let table_op_gen key =
  let open Q.Gen in
  let op =
    frequency
      [
        (6, map2 (fun k v -> Tset (k, v)) key (int_range (-3) 3));
        (2, map (fun k -> Tget k) key);
        (2, map (fun k -> Tmem k) key);
        (4, map (fun k -> Tremove k) key);
        (1, return Tsize);
        (1, map (fun n -> if n = 0 then Tclear else Tsize) (int_bound 40));
      ]
  in
  pair op bool

let table_model_property (name, key_ty, key) =
  let width = Value.Table.parts_width key_ty in
  let show (op, typed) =
    let k v = Value.to_string v in
    (match op with
    | Tset (key, v) -> Printf.sprintf "set %s %d" (k key) v
    | Tget key -> "get " ^ k key
    | Tmem key -> "mem " ^ k key
    | Tremove key -> "remove " ^ k key
    | Tsize -> "size"
    | Tclear -> "clear")
    ^ if typed then " (parts)" else ""
  in
  Q.Test.make
    ~name:(Printf.sprintf "tables: %s keys agree with an association list" name)
    ~count:150
    (Q.make
       ~print:(fun ops -> String.concat "; " (List.map show ops))
       Q.Gen.(list_size (int_range 50 900) (table_op_gen key)))
    (fun ops ->
      let world, _, _ = World.dummy () in
      let prim name = Prim.find_exn name in
      let call name args = (prim name).Prim.impl world (Array.of_list args) in
      let table = call "mkTable" [ Value.Vint 4 ] in
      let parts_of key =
        let parts = Array.make (Option.get width) 0 in
        ignore (Value.Table.pack key parts 0);
        parts
      in
      let model = ref [] in
      let lookup key = List.find_opt (fun (k, _) -> Value.equal k key) !model in
      let forget key = List.filter (fun (k, _) -> not (Value.equal k key)) !model in
      List.for_all
        (fun (op, typed) ->
          let typed = typed && Option.is_some width in
          match op with
          | Tset (key, v) ->
              (if typed then
                 match (prim "tblSet").Prim.typed with
                 | Prim.Key_set set -> set table (parts_of key) (Value.Vint v)
                 | _ -> assert false
               else ignore (call "tblSet" [ table; key; Value.Vint v ]));
              model := (key, Value.Vint v) :: forget key;
              true
          | Tget key ->
              let default = Value.Vint 99 in
              let got =
                if typed then
                  match (prim "tblGet").Prim.typed with
                  | Prim.Key_get get -> get table (parts_of key) default
                  | _ -> assert false
                else call "tblGet" [ table; key; default ]
              in
              Value.equal got
                (match lookup key with Some (_, v) -> v | None -> default)
          | Tmem key ->
              let got =
                if typed then
                  match (prim "tblMem").Prim.typed with
                  | Prim.Key_mem mem -> mem table (parts_of key)
                  | _ -> assert false
                else Value.as_bool (call "tblMem" [ table; key ])
              in
              Bool.equal got (Option.is_some (lookup key))
          | Tremove key ->
              (if typed then
                 match (prim "tblRemove").Prim.typed with
                 | Prim.Key_remove remove -> remove table (parts_of key)
                 | _ -> assert false
               else ignore (call "tblRemove" [ table; key ]));
              model := forget key;
              true
          | Tsize ->
              Value.as_int (call "tblSize" [ table ]) = List.length !model
          | Tclear ->
              ignore (call "tblClear" [ table ]);
              model := [];
              true)
        ops
      && Value.as_int (call "tblSize" [ table ]) = List.length !model)

let table_model_properties =
  let open Q.Gen in
  let small = int_range (-150) 150 in
  let host = map (fun n -> Value.Vhost (0x0a000000 + n)) (int_range 0 300) in
  List.map table_model_property
    [
      ("int", Ptype.Tint, map (fun n -> Value.Vint n) small);
      ("host", Ptype.Thost, host);
      ( "host*int",
        Ptype.Ttuple [ Ptype.Thost; Ptype.Tint ],
        map2 (fun h p -> Value.Vtuple [| h; Value.Vint p |]) host (int_range 0 3) );
      ( "int*bool*char",
        Ptype.Ttuple [ Ptype.Tint; Ptype.Tbool; Ptype.Tchar ],
        map3
          (fun n b c -> Value.Vtuple [| Value.Vint n; Value.vbool b; Value.Vchar c |])
          (int_range (-60) 60) bool (oneofl [ 'a'; 'b'; '\000' ]) );
      ( "string*int",
        Ptype.Ttuple [ Ptype.Tstring; Ptype.Tint ],
        map2
          (fun s n -> Value.Vtuple [| Value.Vstring s; Value.Vint n |])
          (oneofl [ ""; "a"; "ab"; "ba"; "abc" ])
          (int_range 0 60) );
    ]

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
(* Random bytes, and runs of up to 40 digits (past [max_int] from 19 on)
   in front of them or as a declaration's literal. *)
let frontend_fuzz =
  let open Q.Gen in
  let junk = string_size ~gen:(char_range '\000' '\255') (int_range 0 80) in
  let digits = string_size ~gen:numeral (int_range 1 40) in
  Q.Test.make ~name:"frontend: random input never crashes lexer/parser"
    ~count:1000
    (Q.make ~print:(Printf.sprintf "%S")
       (frequency
          [
            (2, junk);
            (1, map2 ( ^ ) digits junk);
            (1, map (( ^ ) "val big : int = ") digits);
          ]))
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

(* ---------- decoders: any bytes give a typed error ---------- *)

(* Random bytes, and mutations of 1-4 bytes or truncations of a valid
   input: what each decoder property below feeds its decoder. *)
let near_valid valid =
  let open Q.Gen in
  let random = string_size ~gen:char (int_range 0 96) in
  let mutated =
    let* base = oneofl valid in
    let* k = int_range 1 4 in
    let+ edits =
      list_repeat k (pair (int_bound (String.length base - 1)) char)
    in
    let bytes = Bytes.of_string base in
    List.iter (fun (i, c) -> Bytes.set bytes i c) edits;
    Bytes.to_string bytes
  in
  let truncated =
    let* base = oneofl valid in
    let+ len = int_bound (String.length base - 1) in
    String.sub base 0 len
  in
  Q.make ~print:(Printf.sprintf "%S")
    (frequency [ (1, random); (2, mutated); (1, truncated) ])

let decoder_property ~name ~count valid decodes =
  Q.Test.make ~name ~count:(count * prop_scale) (near_valid valid)
    (fun input ->
      match decodes input with
      | (_ : bool) -> true
      | exception e ->
          Q.Test.fail_reportf "%S raised %s" input (Printexc.to_string e))

let json_decoder_fuzz =
  decoder_property ~name:"decoders: Obs.Json.of_string returns Ok or Error"
    ~count:2000
    [
      {|{"a": [1, -2.5e3, true, false, null, "x\u0001\"y"], "b": {}}|};
      {|[{"name": "netsim.engine.events", "value": 123456, "q": 0.25}]|};
      Obs.Json.to_string
        (Obs.Json.Obj
           [
             ("s", Obs.Json.String "tab\tctl\001"); ("f", Obs.Json.Float 1.5);
           ]);
    ]
    (fun input -> Result.is_ok (Obs.Json.of_string input))

let policy_decoder_fuzz =
  decoder_property ~name:"decoders: Adapt.Policy.parse returns Ok or Error"
    ~count:2000
    [
      "# comment\nperiod 0.25\nalpha 0.6\n\n\
       rule degrade: when drop_rate > 5 and goodput < 40 for 1.5 cooldown 8 \
       do swap audio-router conservative\n\
       rule shed: when loss_rate >= 50 for 2 do undeploy mpeg-filter\n\
       rule tune: when queue_delay > 0.25 for 1 do retune buffer 0.5\n\
       rule bail: when retry_rate > 20 for 5 do escalate \"retry storm\"\n\
       guard goodput window 4 min-ratio 0.5\n";
      "period 0.5\nrule r: when x <= 1e3 for 0 do escalate a\n";
    ]
    (fun input -> Result.is_ok (Adapt.Policy.parse input))

let capsule_decoder_fuzz =
  let module C = Deploy.Capsule in
  let addr = Netsim.Addr.of_string "10.0.0.9" in
  let valid =
    List.map
      (fun msg -> Netsim.Payload.to_string (C.encode msg))
      [
        C.Manifest
          {
            program = "audio";
            epoch = 7;
            backend = "jit";
            total_chunks = 3;
            total_bytes = 1200;
            checksum = C.checksum "xyz";
            authenticated = true;
            reply_addr = addr;
            reply_port = 52001;
          };
        C.Chunk { program = "audio"; epoch = 7; index = 2; data = "ab\000c" };
        C.Undeploy
          { program = "p"; epoch = 3; reply_addr = addr; reply_port = 52003 };
        C.Rollback
          { program = "p"; epoch = 4; reply_addr = addr; reply_port = 52003 };
        C.Ack
          {
            program = "p";
            epoch = 4;
            signature = C.sign ~secret:"s" ~program:"p" ~epoch:4 ~node:addr;
            install_latency_us = 1234;
            note = "activated";
          };
        C.Nak { program = "p"; epoch = 4; reason = "stale" };
      ]
  in
  decoder_property ~name:"decoders: Deploy.Capsule.decode returns Some or None"
    ~count:3000 valid
    (fun input -> Option.is_some (C.decode (Netsim.Payload.of_string input)))

let scenario_decoder_fuzz =
  decoder_property
    ~name:"decoders: Netsim.Faults.parse_scenario returns Ok or Error"
    ~count:2000
    [
      "# the example of doc/FAULTS.md\n\
       seed 42\n\
       at 1.0 until 2.5 link down uplink\n\
       at 0.5 until 9.0 link loss uplink 0.05\n\
       at 0.5 until 9.0 segment corrupt lan 0.01\n\
       at 3.0 until 6.0 congest backbone bandwidth 0.5 queue 0.5\n\
       at 4.0 until 6.0 node crash router\n\
       at 4.0 node crash-wipe router\n\
       at 2.5 reroute\n";
    ]
    (fun input -> Result.is_ok (Netsim.Faults.parse_scenario input))

let mpeg_setup_decoder_fuzz =
  let module M = Asp.Mpeg_app in
  decoder_property
    ~name:"decoders: Asp.Mpeg_app.decode_setup returns Some or None"
    ~count:1000
    (List.map
       (fun (file_id, total_frames) ->
         Payload.to_string (M.encode_setup { M.file_id; total_frames }))
       [ (0, 0); (7, 240); (0xFFFF_FFFF, 0x7FFF_FFFF) ])
    (fun input -> Option.is_some (M.decode_setup (Payload.of_string input)))

let image_decoder_fuzz =
  let module Image = Planp_runtime.Image in
  let image = Image.synth ~width:8 ~height:4 ~seed:3 in
  decoder_property ~name:"decoders: Image.decode returns Some or None"
    ~count:2000
    (List.map
       (fun n -> Payload.to_string (Image.encode (Image.distill_n image n)))
       [ 0; 1; 2 ])
    (fun input -> Option.is_some (Image.decode (Payload.of_string input)))

(* ---------- operator text: one line format ---------- *)

module Lf = Netsim.Line_format
module Faults = Netsim.Faults
module Policy = Adapt.Policy

(* A value of each field kind, over the kind's whole range (from random
   bits) and at its edges. *)
let kind_value : type a. a Lf.kind -> a Q.Gen.t =
 fun kind ->
  let open Q.Gen in
  let finite =
    map
      (fun bits ->
        let v = Int64.float_of_bits bits in
        if Float.is_finite v then v else 1.0)
      ui64
  in
  let unit = float_bound_inclusive 1.0 in
  let tiny = 5e-324 and below_one = Float.pred 1.0 in
  match kind with
  | Lf.Int -> frequency [ (3, int); (1, oneofl [ 0; max_int; min_int ]) ]
  | Lf.Finite ->
      frequency
        [
          (2, finite);
          (2, float_range (-100.0) 100.0);
          (1, oneofl [ 0.0; -0.0; Float.max_float; -.Float.max_float; tiny ]);
        ]
  | Lf.Duration ->
      frequency
        [
          (2, map Float.abs finite);
          (2, float_bound_inclusive 100.0);
          (1, oneofl [ 0.0; Float.max_float; tiny ]);
        ]
  | Lf.Positive ->
      frequency
        [
          (2, map (fun v -> if v = 0.0 then tiny else Float.abs v) finite);
          (2, map (fun v -> v +. 0.25) (float_bound_inclusive 100.0));
          (1, oneofl [ Float.max_float; tiny ]);
        ]
  | Lf.Probability ->
      frequency [ (3, unit); (1, oneofl [ 0.0; 1.0; tiny; below_one ]) ]
  | Lf.Factor ->
      frequency
        [
          (3, map (fun v -> if v = 0.0 then 1.0 else v) unit);
          (1, oneofl [ 1.0; tiny; below_one ]);
        ]

let number v = Printf.sprintf "%.17g" v

(* The text of token lines: tokens joined by runs of spaces and tabs,
   maybe indented, maybe ending in a comment, LF or CRLF, with blank
   and comment-only lines between. *)
let layout lines =
  let open Q.Gen in
  let run shortest =
    string_size ~gen:(oneofl [ ' '; '\t' ]) (int_range shortest 3)
  in
  let eol = oneofl [ "\n"; "\r\n"; " # note\n"; "\t#x\r\n"; "#\n" ] in
  let filler = oneofl [ ""; ""; ""; "\n"; "\r\n"; "# comment\n"; " \t\r\n" ] in
  let line tokens =
    let* first = run 0
    and* seps = list_repeat (List.length tokens - 1) (run 1)
    and* eol = eol
    and* filler = filler in
    let words = List.map2 ( ^ ) (first :: seps) tokens in
    return (filler ^ String.concat "" words ^ eol)
  in
  map (String.concat "") (flatten_l (List.map line lines))

(* One fault and its tokens after "at T [until T2]". *)
let fault_gen =
  let open Q.Gen in
  let rate = kind_value Lf.Probability in
  let factor = opt (kind_value Lf.Factor) in
  let* name = oneofl [ "uplink"; "lan"; "r1"; "bandwidth"; "queue" ] in
  let link = Some (Faults.Tlink name) in
  let segment = Some (Faults.Tsegment name) in
  let rated kind target words =
    map (fun p -> (kind p, target, words @ [ name; number p ])) rate
  in
  let loss p = Faults.Loss p and corrupt p = Faults.Corrupt p in
  oneof
    [
      return (Faults.Link_down, link, [ "link"; "down"; name ]);
      rated loss link [ "link"; "loss" ];
      rated corrupt link [ "link"; "corrupt" ];
      rated loss segment [ "segment"; "loss" ];
      rated corrupt segment [ "segment"; "corrupt" ];
      (let* bandwidth = factor and* queue = factor and* queue_first = bool in
       let option key = function Some v -> [ key; number v ] | None -> [] in
       let bandwidth_factor = Option.value bandwidth ~default:1.0 in
       let queue_factor = Option.value queue ~default:1.0 in
       let options =
         if queue_first then option "queue" queue @ option "bandwidth" bandwidth
         else option "bandwidth" bandwidth @ option "queue" queue
       in
       return
         ( Faults.Congest { bandwidth_factor; queue_factor },
           link,
           "congest" :: name :: options ));
      return
        ( Faults.Crash { wipe = false },
          Some (Faults.Tnode name),
          [ "node"; "crash"; name ] );
      return
        ( Faults.Crash { wipe = true },
          Some (Faults.Tnode name),
          [ "node"; "crash-wipe"; name ] );
      return (Faults.Reroute, None, [ "reroute" ]);
    ]

(* A scenario and its text: events in order, an optional seed line
   anywhere among them. *)
let scenario_gen =
  let open Q.Gen in
  let event =
    let* a = kind_value Lf.Finite
    and* b = opt (kind_value Lf.Finite)
    and* ft_kind, ft_target, fault = fault_gen in
    let ft_at, ft_until, times =
      match b with
      | None -> (a, None, [ "at"; number a ])
      | Some b ->
          let at = Float.min a b and until = Float.max a b in
          (at, Some until, [ "at"; number at; "until"; number until ])
    in
    return ({ Faults.ft_at; ft_until; ft_kind; ft_target }, times @ fault)
  in
  let* events = list_size (int_range 0 8) event
  and* seed = opt (kind_value Lf.Int)
  and* seed_line = nat in
  let lines = List.map snd events in
  let lines =
    match seed with
    | None -> lines
    | Some n ->
        let i = seed_line mod (List.length lines + 1) in
        let seed = [ "seed"; string_of_int n ] in
        List.filteri (fun j _ -> j < i) lines
        @ (seed :: List.filteri (fun j _ -> j >= i) lines)
  in
  let+ text = layout lines in
  (Faults.scenario_of_events ?seed (List.map fst events), text)

let action_gen =
  let open Q.Gen in
  let escalate =
    let word = oneofl [ "retry"; "storm"; "and"; "do" ] in
    let* words = list_size (int_range 1 3) word and* quoted = bool in
    let last = List.length words - 1 in
    let quote i word =
      if not quoted then word
      else (if i = 0 then "\"" else "") ^ word ^ if i = last then "\"" else ""
    in
    return
      ( Policy.Escalate { reason = String.concat " " words },
        "escalate" :: List.mapi quote words )
  in
  oneof
    [
      map2
        (fun program variant ->
          (Policy.Swap { program; variant }, [ "swap"; program; variant ]))
        (oneofl [ "audio-router"; "gw" ])
        (oneofl [ "default"; "v2" ]);
      map
        (fun program -> (Policy.Undeploy { program }, [ "undeploy"; program ]))
        (oneofl [ "mpeg-filter"; "gw" ]);
      map2
        (fun param value ->
          (Policy.Retune { param; value }, [ "retune"; param; number value ]))
        (oneofl [ "buffer"; "mono16_above" ])
        (kind_value Lf.Finite);
      escalate;
    ]

(* Rule [r<index>] and its tokens: one to three clauses, an optional
   cooldown, every action form. *)
let rule_gen index =
  let open Q.Gen in
  let name = Printf.sprintf "r%d" index in
  let clause =
    let* signal = oneofl [ "drop_rate"; "goodput"; "x" ]
    and* cmp = oneofl Policy.[ Gt; Ge; Lt; Le ]
    and* threshold = kind_value Lf.Finite in
    return
      ( Policy.Cmp { signal; cmp; threshold },
        [ signal; Policy.cmp_to_string cmp; number threshold ] )
  in
  let* clauses = list_size (int_range 1 3) clause
  and* hold = kind_value Lf.Duration
  and* cooldown = opt (kind_value Lf.Duration)
  and* rl_action, action = action_gen
  and* colon = bool in
  let rule =
    {
      Policy.rl_name = name;
      rl_pred =
        (match List.map fst clauses with [ p ] -> p | ps -> Policy.All ps);
      rl_hold = hold;
      rl_cooldown = Option.value cooldown ~default:0.0;
      rl_action;
    }
  in
  let condition =
    List.concat
      (List.mapi
         (fun i (_, words) -> if i = 0 then words else "and" :: words)
         clauses)
  in
  let cooldown =
    match cooldown with Some c -> [ "cooldown"; number c ] | None -> []
  in
  return
    ( rule,
      [ "rule"; (if colon then name ^ ":" else name); "when" ]
      @ condition
      @ [ "for"; number hold ]
      @ cooldown @ ("do" :: action) )

let policy_gen =
  let open Q.Gen in
  let* period = opt (kind_value Lf.Positive)
  and* alpha = opt (kind_value Lf.Factor)
  and* rules = int_range 0 4 >>= fun n -> flatten_l (List.init n rule_gen)
  and* guard =
    opt
      (triple
         (oneofl [ "goodput"; "x" ])
         (kind_value Lf.Positive) (kind_value Lf.Positive))
  in
  let setting key = function Some v -> [ [ key; number v ] ] | None -> [] in
  let guard_line (signal, window, ratio) =
    [ "guard"; signal; "window"; number window; "min-ratio"; number ratio ]
  in
  let+ text =
    layout
      (setting "period" period @ setting "alpha" alpha @ List.map snd rules
      @ Option.to_list (Option.map guard_line guard))
  in
  ( {
      Policy.period = Option.value period ~default:Policy.empty.Policy.period;
      alpha = Option.value alpha ~default:Policy.empty.Policy.alpha;
      rules = List.map fst rules;
      guard =
        Option.map
          (fun (g_signal, g_window, g_min_ratio) ->
            { Policy.g_signal; g_window; g_min_ratio })
          guard;
    },
    text )

let round_trip ~name gen parse =
  Q.Test.make ~name ~count:(300 * prop_scale)
    (Q.make ~print:(fun (_, text) -> Printf.sprintf "%S" text) gen)
    (fun (value, text) -> parse text = Ok value)

let scenario_round_trip =
  round_trip ~name:"line format: generated scenarios parse back" scenario_gen
    Faults.parse_scenario

let policy_round_trip =
  round_trip ~name:"line format: generated policies parse back" policy_gen
    Policy.parse

(* Text no field of [kind] may hold: NaN, ±inf, an overflowing literal,
   non-numbers and values just outside the kind's range. *)
let bad_text : type a. a Lf.kind -> string list =
 fun kind ->
  [ "nan"; "-nan"; "inf"; "-inf"; "infinity"; "1e400"; "-1e400" ]
  @ [ "abc"; "0.5.1"; "x1" ]
  @
  match kind with
  | Lf.Finite -> []
  | Lf.Duration -> [ "-1"; "-1e-300"; "-4.9406564584124654e-324" ]
  | Lf.Positive -> [ "0"; "-0"; "-3"; "-1e-300" ]
  | Lf.Probability -> [ "-0.1"; "1.0000000000000002"; "2"; "-1e-300" ]
  | Lf.Factor -> [ "0"; "-0"; "1.0000000000000002"; "2" ]
  | Lf.Int -> [ "4611686018427387904"; "-4611686018427387905"; "1.5"; "1e3" ]

(* A field in a line of either format: the format's error for a text,
   the texts the field's kind refuses, the field's name and the line
   around a value. *)
type field_site = {
  error : string -> string option;
  bad : string list;
  field : string;
  line : string -> string;
}

let field_sites =
  let error parse text =
    match parse text with Ok _ -> None | Error message -> Some message
  in
  let scenario kind field line =
    { error = error Faults.parse_scenario; bad = bad_text kind; field; line }
  in
  let policy kind field line =
    { error = error Policy.parse; bad = bad_text kind; field; line }
  in
  [
    scenario Lf.Int "seed" (Printf.sprintf "seed %s");
    scenario Lf.Finite "at" (Printf.sprintf "at %s link down uplink");
    scenario Lf.Finite "until" (Printf.sprintf "at 1.0 until %s reroute");
    scenario Lf.Probability "link loss" (Printf.sprintf "at 1 link loss up %s");
    scenario Lf.Probability "link corrupt"
      (Printf.sprintf "at 1 link corrupt up %s");
    scenario Lf.Probability "segment loss"
      (Printf.sprintf "at 1 segment loss lan %s");
    scenario Lf.Probability "segment corrupt"
      (Printf.sprintf "at 1 segment corrupt lan %s");
    scenario Lf.Factor "bandwidth"
      (Printf.sprintf "at 1 until 2 congest x bandwidth %s");
    scenario Lf.Factor "queue"
      (Printf.sprintf "at 1 congest x bandwidth 0.5 queue %s");
    policy Lf.Positive "period" (Printf.sprintf "period %s");
    policy Lf.Factor "alpha" (Printf.sprintf "alpha %s");
    policy Lf.Finite "rule r y"
      (Printf.sprintf "rule r: when x > 1 and y <= %s for 0 do escalate a");
    policy Lf.Duration "rule r hold"
      (Printf.sprintf "rule r: when x > 1 for %s do swap a b");
    policy Lf.Duration "rule r cooldown"
      (Printf.sprintf "rule r when x < 1 for 2 cooldown %s do undeploy a");
    policy Lf.Finite "rule r retune"
      (Printf.sprintf "rule r: when x > 1 for 0 do retune buffer %s");
    policy Lf.Positive "guard window"
      (Printf.sprintf "guard g window %s min-ratio 0.5");
    policy Lf.Positive "guard min-ratio"
      (Printf.sprintf "guard g window 4 min-ratio %s");
  ]

(* After 0-3 comment or blank lines, a bad field reads as
   "line N: <field>: ..." in either format. *)
let bad_fields_name_line_and_field =
  let open Q.Gen in
  let case =
    let* site = oneofl field_sites in
    let* bad = oneofl site.bad
    and* filler =
      list_size (int_range 0 3) (oneofl [ "# fine\n"; "\r\n"; "\t\n" ])
    in
    let text = String.concat "" filler ^ site.line bad ^ "\n" in
    return (site, List.length filler, text)
  in
  Q.Test.make ~name:"line format: bad numbers name their line and field"
    ~count:(200 * prop_scale)
    (Q.make ~print:(fun (_, _, text) -> Printf.sprintf "%S" text) case)
    (fun (site, filler, text) ->
      let prefix = Printf.sprintf "line %d: %s: " (filler + 1) site.field in
      match site.error text with
      | Some message when String.starts_with ~prefix message -> true
      | Some message -> Q.Test.fail_reportf "wrong error %S" message
      | None -> Q.Test.fail_reportf "parsed")

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
      (table_model_properties @ [
        addr_roundtrip;
        sched_matches_reference_model;
        bucket_int_float_parity;
        payload_u32_roundtrip;
        payload_concat_reads_in_place;
        int_table_matches_model;
        audio_frame_roundtrip;
        audio_degrade_size;
        audio_wire_matches_reference;
        audio_wire_synth;
        audio_prims_match_reference;
        zipf_in_range;
        file_sizes_bounded;
        backends_differential;
        backends_program_differential;
        pretty_parse_roundtrip;
        reparsed_evaluates_same;
        codec_roundtrip;
        codec_decoder_matches_reference;
        frontend_fuzz;
        frontend_mutation_fuzz;
        json_decoder_fuzz;
        policy_decoder_fuzz;
        capsule_decoder_fuzz;
        scenario_decoder_fuzz;
        mpeg_setup_decoder_fuzz;
        image_decoder_fuzz;
        scenario_round_trip;
        policy_round_trip;
        bad_fields_name_line_and_field;
        flowstat_rate_nonnegative;
      ])
  in
  Alcotest.run "properties" [ ("qcheck", suite) ]
