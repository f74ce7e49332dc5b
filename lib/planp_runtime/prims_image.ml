module Ptype = Planp.Ptype

let image_of_blob value =
  match Image.decode (Value.as_blob value) with
  | Some image -> image
  | None -> raise (Value.Planp_raise "BadImage")

let pure = Prim.pure

let install () =
  List.iter Prim.register
    [
      pure "isImage" [ Ptype.Tblob ] Ptype.Tbool (fun args ->
          Value.vbool (Option.is_some (Image.decode (Value.as_blob args.(0)))));
      pure "imgWidth" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (image_of_blob args.(0)).Image.width);
      pure "imgHeight" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (image_of_blob args.(0)).Image.height);
      pure "imgDepth" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (image_of_blob args.(0)).Image.depth);
      pure "imgBytes" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          Value.Vint (Image.encoded_size (image_of_blob args.(0))));
      pure "imgDistill" [ Ptype.Tblob; Ptype.Tint ] Ptype.Tblob (fun args ->
          let levels = Value.as_int args.(1) in
          if levels < 0 then raise (Value.Planp_raise "BadImage")
          else
            Value.Vblob
              (Image.encode (Image.distill_n (image_of_blob args.(0)) levels)));
    ]
