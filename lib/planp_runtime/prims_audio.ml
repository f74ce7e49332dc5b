module Ptype = Planp.Ptype
module Sig = Planp.Prim_sig

module Wire = Audio_frame.Wire

let bad_audio () = raise (Value.Planp_raise "BadAudio")

let header_of_blob value =
  match Wire.header (Value.as_blob value) with
  | Some header -> header
  | None -> bad_audio ()

let blob_of = function Some payload -> Value.Vblob payload | None -> bad_audio ()

let pure prim_name expected result impl =
  {
    Prim.prim_name;
    type_fn = Sig.fixed expected result;
    impl = (fun _world args -> impl args);
    pure = true;
  }

let arg1 = function
  | [| a |] -> a
  | _ -> raise (Value.Runtime_error "expected 1 argument")

let arg2 = function
  | [| a; b |] -> (a, b)
  | _ -> raise (Value.Runtime_error "expected 2 arguments")

let install () =
  List.iter Prim.register
    [
      pure "audioSeq" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (header_of_blob (arg1 args)).Wire.seq);
      pure "audioQuality" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint
            (Audio_frame.quality_code (header_of_blob (arg1 args)).Wire.quality));
      pure "audioFrames" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (header_of_blob (arg1 args)).Wire.frames);
      pure "audioBytes" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (Netsim.Payload.length (Value.as_blob (arg1 args))));
      pure "audioDegrade" [ Ptype.Tblob; Ptype.Tint ] Ptype.Tblob (fun args ->
          let blob, level = arg2 args in
          match Audio_frame.quality_of_code (Value.as_int level) with
          | None -> bad_audio ()
          | Some quality -> blob_of (Wire.degrade (Value.as_blob blob) quality));
      pure "audioRestore" [ Ptype.Tblob ] Ptype.Tblob (fun args ->
          blob_of (Wire.restore (Value.as_blob (arg1 args))));
    ]
