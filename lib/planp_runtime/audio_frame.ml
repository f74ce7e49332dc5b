module Payload = Netsim.Payload

type quality = Stereo16 | Mono16 | Mono8

let quality_code = function Stereo16 -> 0 | Mono16 -> 1 | Mono8 -> 2

let quality_of_code = function
  | 0 -> Some Stereo16
  | 1 -> Some Mono16
  | 2 -> Some Mono8
  | _ -> None

let degraded_from a b = quality_code a >= quality_code b

type t = { seq : int; quality : quality; samples : int array }

let frame_count t =
  match t.quality with
  | Stereo16 -> Array.length t.samples / 2
  | Mono16 | Mono8 -> Array.length t.samples

let bytes_per_frame = function Stereo16 -> 4 | Mono16 -> 2 | Mono8 -> 1

let clamp16 v = if v > 32767 then 32767 else if v < -32768 then -32768 else v
let clamp8 v = if v > 127 then 127 else if v < -128 then -128 else v

let encode t =
  let writer = Payload.Writer.create () in
  Payload.Writer.u32 writer t.seq;
  Payload.Writer.u8 writer (quality_code t.quality);
  Payload.Writer.u16 writer (frame_count t);
  (match t.quality with
  | Stereo16 | Mono16 ->
      Array.iter
        (fun sample -> Payload.Writer.u16 writer (clamp16 sample land 0xffff))
        t.samples
  | Mono8 ->
      Array.iter
        (fun sample -> Payload.Writer.u8 writer (clamp8 sample land 0xff))
        t.samples);
  Payload.Writer.finish writer

let sign16 raw = if raw land 0x8000 <> 0 then raw - 0x10000 else raw
let sign8 raw = if raw land 0x80 <> 0 then raw - 0x100 else raw

let decode payload =
  if Payload.length payload < 7 then None
  else
    let reader = Payload.Reader.create payload in
    let seq = Payload.Reader.u32 reader in
    let code = Payload.Reader.u8 reader in
    let frames = Payload.Reader.u16 reader in
    match quality_of_code code with
    | None -> None
    | Some quality ->
        let sample_count =
          match quality with Stereo16 -> 2 * frames | Mono16 | Mono8 -> frames
        in
        let expected_bytes =
          match quality with
          | Stereo16 | Mono16 -> 2 * sample_count
          | Mono8 -> sample_count
        in
        if Payload.Reader.remaining reader <> expected_bytes then None
        else begin
          let samples = Array.make sample_count 0 in
          (match quality with
          | Stereo16 | Mono16 ->
              for i = 0 to sample_count - 1 do
                samples.(i) <- sign16 (Payload.Reader.u16 reader)
              done
          | Mono8 ->
              for i = 0 to sample_count - 1 do
                samples.(i) <- sign8 (Payload.Reader.u8 reader)
              done);
          Some { seq; quality; samples }
        end

let to_mono16 t =
  match t.quality with
  | Stereo16 ->
      let frames = frame_count t in
      let mono = Array.make frames 0 in
      for i = 0 to frames - 1 do
        mono.(i) <- (t.samples.(2 * i) + t.samples.((2 * i) + 1)) / 2
      done;
      { t with quality = Mono16; samples = mono }
  | Mono16 -> t
  | Mono8 ->
      { t with quality = Mono16; samples = Array.map (fun s -> s lsl 8) t.samples }

let to_mono8 t =
  let mono = to_mono16 t in
  match t.quality with
  | Mono8 -> t
  | Stereo16 | Mono16 ->
      {
        mono with
        quality = Mono8;
        samples = Array.map (fun s -> clamp8 (s asr 8)) mono.samples;
      }

let degrade t target =
  if not (degraded_from target t.quality) then t
  else
    match target with
    | Stereo16 -> t
    | Mono16 -> to_mono16 t
    | Mono8 -> to_mono8 t

let restore t =
  match t.quality with
  | Stereo16 -> t
  | Mono16 | Mono8 ->
      let mono = to_mono16 t in
      let frames = Array.length mono.samples in
      let stereo = Array.make (2 * frames) 0 in
      for i = 0 to frames - 1 do
        stereo.(2 * i) <- mono.samples.(i);
        stereo.((2 * i) + 1) <- mono.samples.(i)
      done;
      { t with quality = Stereo16; samples = stereo }

(* Integer sine-ish oscillator: a second-order resonator would drift in
   integer arithmetic, so use a triangle wave with a slow wobble — fully
   deterministic and exercises the full 16-bit range. Sample [n] of the
   stream is [triangle n ± wobble n], clamped. *)
let triangle n =
  let x = n mod 200 in
  if x < 100 then (x * 600) - 30000 else ((200 - x) * 600) - 30000

let wobble n = (n mod 37) * 100

let synth ~seq ~frames ~phase =
  let samples = Array.make (2 * frames) 0 in
  for i = 0 to frames - 1 do
    let n = phase + i in
    samples.(2 * i) <- clamp16 (triangle n + wobble n);
    samples.((2 * i) + 1) <- clamp16 (triangle n - wobble n)
  done;
  { seq; quality = Stereo16; samples }

let rms_error a b =
  let ra = restore a and rb = restore b in
  let n = Int.min (Array.length ra.samples) (Array.length rb.samples) in
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let d = float_of_int (ra.samples.(i) - rb.samples.(i)) in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int n)
  end

let equal a b = a.seq = b.seq && a.quality = b.quality && a.samples = b.samples

let quality_name = function
  | Stereo16 -> "16-bit stereo"
  | Mono16 -> "16-bit mono"
  | Mono8 -> "8-bit mono"

let pp fmt t =
  Format.fprintf fmt "<audio seq=%d %s frames=%d>" t.seq (quality_name t.quality)
    (frame_count t)

module Wire = struct
  type header = { seq : int; quality : quality; frames : int }

  (* Exactly [decode]'s acceptance test, read from the 7 header bytes:
     a known quality code and a body of [frames] whole frames. *)
  let header payload =
    let len = Payload.length payload in
    if len < 7 then None
    else
      match quality_of_code (Payload.get_u8 payload 4) with
      | None -> None
      | Some quality ->
          let frames = Payload.get_u16 payload 5 in
          if len - 7 <> bytes_per_frame quality * frames then None
          else Some { seq = Payload.get_u32 payload 0; quality; frames }

  (* A frame's 7 header bytes, at the start of [out]. *)
  let write_header out seq quality frames =
    Bytes.set_uint16_be out 0 ((seq lsr 16) land 0xffff);
    Bytes.set_uint16_be out 2 (seq land 0xffff);
    Bytes.set_uint8 out 4 (quality_code quality);
    Bytes.set_uint16_be out 5 (frames land 0xffff)

  (* A frame's header on its own, the first part of the frames that
     [synth] and [restore] build as parts. *)
  let head seq quality frames =
    let out = Bytes.create 7 in
    write_header out seq quality frames;
    Payload.of_string (Bytes.unsafe_to_string out)

  (* Unchecked 16- and 32-bit access in native byte order. Each use
     below sits after a check that covers it, named at the use. *)
  external get16u : string -> int -> int = "%caml_string_get16u"
  external set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"
  external get32u : string -> int -> int32 = "%caml_string_get32u"
  external swap16 : int -> int = "%bswap16"
  external swap32 : int32 -> int32 = "%bswap_int32"

  (* The low 16 bits of [raw] as a signed sample, without a branch. *)
  let[@inline] low16 raw = (raw lsl (Sys.int_size - 16)) asr (Sys.int_size - 16)

  (* [v] as a big-endian 16-bit sample at [i] of [b]. *)
  let[@inline] set_be b i v =
    if Sys.big_endian then set16u b i v else set16u b i (swap16 v)

  (* The one range check per frame that the unchecked reads below rely
     on: the body, [bytes_per_frame quality * frames] bytes from [src],
     lies inside [base]. [Payload.window] returned exactly that range,
     so this only fails if the two disagree. *)
  let check_body base src quality frames =
    if src < 0 || src + (bytes_per_frame quality * frames) > String.length base
    then invalid_arg "Audio_frame.Wire: frame body outside its window"

  (* The body of a frame whose header is [h]: the string and offset of
     its samples. *)
  let body payload h =
    let ((base, src) as body) =
      Payload.window payload ~pos:7 ~len:(bytes_per_frame h.quality * h.frames)
    in
    check_body base src h.quality h.frames;
    body

  let finish out = Payload.of_string (Bytes.unsafe_to_string out)

  (* [to_mono16]'s average of the stereo pair at [at], read as one
     big-endian word: left in the high half, right in the low. [/ 2]
     truncates toward zero, as the reference does. *)
  let[@inline] stereo_mean base at =
    let raw = get32u base at in
    let pair = Int32.to_int (if Sys.big_endian then raw else swap32 raw) in
    ((pair asr 16) + low16 pair) / 2

  let degrade payload target =
    match header payload with
    | None -> None
    | Some ({ seq; quality; frames } as h) ->
        (* Only a strictly lower target changes the bytes. *)
        if quality_code target <= quality_code quality then Some payload
        else begin
          let base, src = body payload h in
          (* [out] holds [7 + bytes_per_frame target * frames] bytes, so
             every write below is in range. *)
          let out = Bytes.create (7 + (bytes_per_frame target * frames)) in
          write_header out seq target frames;
          (match (quality, target) with
          | Stereo16, Mono16 ->
              for i = 0 to frames - 1 do
                (* reads covered by [check_body] on [quality] *)
                set_be out (7 + (2 * i)) (stereo_mean base (src + (4 * i)))
              done
          | Stereo16, Mono8 ->
              for i = 0 to frames - 1 do
                (* reads covered by [check_body] on [quality] *)
                let sample = stereo_mean base (src + (4 * i)) in
                Bytes.unsafe_set out (7 + i) (Char.unsafe_chr ((sample asr 8) land 0xff))
              done
          | Mono16, Mono8 ->
              (* [sample asr 8] of a big-endian sample is its first byte. *)
              for i = 0 to frames - 1 do
                (* read covered by [check_body] on [quality] *)
                Bytes.unsafe_set out (7 + i) (String.unsafe_get base (src + (2 * i)))
              done
          | _ -> assert false (* not a strictly lower target *));
          Some (finish out)
        end

  (* A restored frame is its header plus body parts of at most
     [part_frames] sample frames: 2,040 bytes, a string of 256 words, the
     largest block OCaml 5 allocates in the minor heap
     ([Max_young_wosize]). A 3,535-byte frame in one block would go
     straight to the major heap; in parts it is born and dies young. *)
  let part_frames = 510

  (* Sample frames [first, first + count) of a [quality] body at [src]
     of [base], restored to [Stereo16] as one part. *)
  let restore_part base src quality first count =
    (* [out] holds [4 * count] bytes, so every write below is in range. *)
    let out = Bytes.create (4 * count) in
    (match quality with
    | Mono16 ->
        (* Both channels get the sample's two bytes unchanged, so no
           byte swap is needed. *)
        for i = 0 to count - 1 do
          (* read covered by [check_body] on [Mono16] *)
          let raw = get16u base (src + (2 * (first + i))) in
          set16u out (4 * i) raw;
          set16u out ((4 * i) + 2) raw
        done
    | Mono8 ->
        for i = 0 to count - 1 do
          (* read covered by [check_body] on [Mono8] *)
          let sample = Char.code (String.unsafe_get base (src + first + i)) lsl 8 in
          set_be out (4 * i) sample;
          set_be out ((4 * i) + 2) sample
        done
    | Stereo16 -> assert false (* [restore] returns those unchanged *));
    finish out

  let restore payload =
    match header payload with
    | None -> None
    | Some { quality = Stereo16; _ } -> Some payload
    | Some ({ seq; quality; frames } as h) ->
        let base, src = body payload h in
        let rec parts first =
          if first >= frames then []
          else
            let count = Int.min part_frames (frames - first) in
            restore_part base src quality first count :: parts (first + part_frames)
        in
        Some (Payload.concat (head seq Stereo16 frames :: parts 0))

  (* [synth]'s stereo stream repeats every lcm(200, 37) samples: the
     periods of [triangle] and [wobble]. [periods] holds two periods as
     wire bytes, from sample 0, so the samples of any frame of at most
     one period from a phase [>= 0] lie in it as one range. *)
  let period_samples = 200 * 37

  let sample_bytes n out at =
    Bytes.set_int16_be out at (clamp16 (triangle n + wobble n));
    Bytes.set_int16_be out (at + 2) (clamp16 (triangle n - wobble n))

  let periods =
    let out = Bytes.create (8 * period_samples) in
    for n = 0 to (2 * period_samples) - 1 do
      sample_bytes n out (4 * n)
    done;
    Bytes.unsafe_to_string out

  let periods_payload = Payload.of_string periods

  let synth ~seq ~frames ~phase =
    if phase >= 0 && 0 <= frames && frames <= period_samples then
      (* A new header over bytes that already exist. *)
      Payload.concat
        [
          head seq Stereo16 frames;
          Payload.sub periods_payload
            ~pos:(4 * (phase mod period_samples))
            ~len:(4 * frames);
        ]
    else begin
      let out = Bytes.create (7 + (4 * frames)) in
      write_header out seq Stereo16 frames;
      (* One blit per stretch of a period the frame covers. *)
      let i = ref 0 in
      while !i < frames do
        let n = phase + !i in
        if n < 0 then begin
          (* [mod] is negative below 0, where the stream does not repeat
             from [periods]: those samples take the formula. *)
          sample_bytes n out (7 + (4 * !i));
          incr i
        end
        else begin
          let k = n mod period_samples in
          let run = Int.min (frames - !i) ((2 * period_samples) - k) in
          Bytes.blit_string periods (4 * k) out (7 + (4 * !i)) (4 * run);
          i := !i + run
        end
      done;
      finish out
    end
end
