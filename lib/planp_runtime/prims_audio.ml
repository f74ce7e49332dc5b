module Ptype = Planp.Ptype
module Wire = Audio_frame.Wire

let bad_audio () = raise (Value.Planp_raise "BadAudio")

let header_of_blob value =
  match Wire.header (Value.as_blob value) with
  | Some header -> header
  | None -> bad_audio ()

let blob_of = function Some payload -> Value.Vblob payload | None -> bad_audio ()

let pure = Prim.pure

let install () =
  List.iter Prim.register
    [
      pure "audioSeq" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (header_of_blob args.(0)).Wire.seq);
      pure "audioQuality" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint
            (Audio_frame.quality_code (header_of_blob args.(0)).Wire.quality));
      pure "audioFrames" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (header_of_blob args.(0)).Wire.frames);
      pure "audioBytes" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (Netsim.Payload.length (Value.as_blob args.(0))));
      pure "audioDegrade" [ Ptype.Tblob; Ptype.Tint ] Ptype.Tblob (fun args ->
          match Audio_frame.quality_of_code (Value.as_int args.(1)) with
          | None -> bad_audio ()
          | Some quality ->
              blob_of (Wire.degrade (Value.as_blob args.(0)) quality));
      pure "audioRestore" [ Ptype.Tblob ] Ptype.Tblob (fun args ->
          blob_of (Wire.restore (Value.as_blob args.(0))));
    ]
