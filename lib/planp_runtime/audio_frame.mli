(** PCM audio frames — the payload format of the audio broadcasting
    experiment (§3.1) and of the audio primitives.

    A frame holds a sequence number, a quality level and PCM samples:

    - {!Stereo16}: interleaved left/right signed 16-bit samples
      (CD quality, 176.4 kB/s at 44.1 kHz — the paper's "176kb/s");
    - {!Mono16}: signed 16-bit mono (88.2 kB/s);
    - {!Mono8}: signed 8-bit mono (44.1 kB/s).

    Wire layout: [u32 seq ; u8 quality ; u16 sample-frames ; samples], with
    16-bit samples big-endian two's complement.

    Two views of one format. {!Wire} works on the wire bytes directly and
    is what the primitives, the applications and the experiments use: a
    header peek, single-pass byte-to-byte kernels, no sample arrays. The
    record {!t} with {!decode}, {!encode}, {!degrade} and {!restore} is the
    reference model those kernels are tested against, byte for byte. *)

type quality = Stereo16 | Mono16 | Mono8

val quality_code : quality -> int

val quality_of_code : int -> quality option

(** [degraded_from a b] holds when [a] is at most as good as [b]. *)
val degraded_from : quality -> quality -> bool

type t = {
  seq : int;
  quality : quality;
  samples : int array;
      (** [Stereo16]: interleaved L,R (length [2 * frame_count]); mono:
          one sample per frame. 16-bit range or 8-bit range per quality. *)
}

(** [frame_count t] is the number of sample frames (per-channel samples). *)
val frame_count : t -> int

(** [bytes_per_frame quality] is 4, 2 or 1. *)
val bytes_per_frame : quality -> int

val encode : t -> Netsim.Payload.t

val decode : Netsim.Payload.t -> t option

(** [degrade t quality] converts downward (averaging channels, truncating
    to 8 bits). Requesting a better-or-equal quality returns [t]. *)
val degrade : t -> quality -> t

(** [restore t] re-expands to [Stereo16] layout (duplicating the mono
    channel, shifting 8-bit samples up); the information lost by
    degradation is not recovered, only the format. *)
val restore : t -> t

(** [synth ~seq ~frames ~phase] generates a deterministic sine-like test
    signal at [Stereo16]; [phase] seeds the oscillator so successive frames
    are continuous. *)
val synth : seq:int -> frames:int -> phase:int -> t

(** Root-mean-square error between the [Stereo16] restorations of two
    frames, used by tests to check degradation monotonicity. *)
val rms_error : t -> t -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Frames as wire bytes. Every function accepts exactly the payloads
    {!decode} accepts and returns [None] on the rest; every result is
    byte-equal to the reference round trip through {!t}.

    {!degrade} and {!restore} pick one loop per (source quality, target
    quality) pair once per frame. Each takes the body's string and offset
    from {!Netsim.Payload.window} (one part of a rope, so a frame from
    {!synth} is read in place), checks once that the
    [bytes_per_frame quality * frames] bytes from that offset lie inside
    the string, then reads and writes every sample without a bounds
    check. The seq of a new frame comes from the parsed header.

    No frame of the audio experiment (882 sample frames, 20 ms) is
    allocated straight into the major heap: {!synth} builds a 7-byte
    header over existing bytes, {!degrade}'s outputs are at most 1,771
    bytes, and {!restore} builds its 3,535 bytes in parts of at most
    2,040. Each of those blocks is at most OCaml 5's [Max_young_wosize]
    of 256 words, so it is born, and usually dies, in the minor heap. *)
module Wire : sig
  type header = { seq : int; quality : quality; frames : int }

  (** [header payload] reads the first 7 bytes and checks that the body
      holds exactly [frames] frames of [quality]. *)
  val header : Netsim.Payload.t -> header option

  (** [degrade payload quality] is [encode (degrade (decode payload)
      quality)] in one pass over the samples, as one contiguous frame. A
      target that is not lower than the frame's quality returns [payload]
      itself.
      @raise Invalid_argument if the body the header accepted does not
      lie inside the string {!Netsim.Payload.window} returned for it (the
      per-frame range check; it cannot fail for a payload built by
      {!Netsim.Payload}). *)
  val degrade : Netsim.Payload.t -> quality -> Netsim.Payload.t option

  (** [restore payload] is [encode (restore (decode payload))] in one
      pass; a [Stereo16] frame returns [payload] itself. The new frame is
      a concatenation: its 7-byte header, then the samples in parts of at
      most 510 sample frames. 510 frames are 2,040 bytes, a string of
      256 words, the largest block the minor heap takes; one 3,535-byte
      block for a 20 ms frame would be allocated in the major heap and
      kept until a major collection. The header is the first part, so
      {!header} reads it in place.
      @raise Invalid_argument as {!degrade}. *)
  val restore : Netsim.Payload.t -> Netsim.Payload.t option

  (** [synth ~seq ~frames ~phase] is [encode (synth ~seq ~frames ~phase)].
      The test signal repeats every 7,400 samples (lcm of the triangle's
      200 and the wobble's 37), so two periods back to back (59.2 kB) are
      built as wire bytes when the module is initialized. A frame of at
      most 7,400 sample frames from a [phase >= 0] lies inside that table
      as one range, and is returned as a new 7-byte header concatenated
      with a view of it: no sample is copied. Longer frames and negative
      phases take the copying path, one copy per stretch of the table;
      samples at negative positions ([phase + i < 0]) do not repeat and
      are computed one by one. *)
  val synth : seq:int -> frames:int -> phase:int -> Netsim.Payload.t
end
