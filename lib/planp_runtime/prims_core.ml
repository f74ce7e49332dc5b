module Ptype = Planp.Ptype

let v n = Value.Vint n
let vb = Value.vbool
let pure = Prim.pure

let install () =
  List.iter Prim.register
    [
      Prim.impure "print" [ Ptype.Tstring ] Ptype.Tunit (fun world args ->
          world.World.print (Value.as_string args.(0));
          Value.Vunit);
      Prim.impure "println" [ Ptype.Tstring ] Ptype.Tunit (fun world args ->
          world.World.print (Value.as_string args.(0) ^ "\n");
          Value.Vunit);
      pure "itos" [ Ptype.Tint ] Ptype.Tstring (fun args ->
          Value.Vstring (string_of_int (Value.as_int args.(0))));
      pure "htos" [ Ptype.Thost ] Ptype.Tstring (fun args ->
          Value.Vstring (Netsim.Addr.to_string (Value.as_host args.(0))));
      pure "charPos" [ Ptype.Tchar ] Ptype.Tint (fun args ->
          v (Char.code (Value.as_char args.(0))));
      pure "chr" [ Ptype.Tint ] Ptype.Tchar (fun args ->
          let code = Value.as_int args.(0) in
          if code < 0 || code > 255 then
            raise (Value.Planp_raise "BadChar")
          else Value.Vchar (Char.chr code));
      pure "min" [ Ptype.Tint; Ptype.Tint ] Ptype.Tint (fun args ->
          v (Int.min (Value.as_int args.(0)) (Value.as_int args.(1))));
      pure "max" [ Ptype.Tint; Ptype.Tint ] Ptype.Tint (fun args ->
          v (Int.max (Value.as_int args.(0)) (Value.as_int args.(1))));
      pure "abs" [ Ptype.Tint ] Ptype.Tint (fun args ->
          v (Int.abs (Value.as_int args.(0))));
      pure "strlen" [ Ptype.Tstring ] Ptype.Tint (fun args ->
          v (String.length (Value.as_string args.(0))));
      pure "strget" [ Ptype.Tstring; Ptype.Tint ] Ptype.Tchar (fun args ->
          let s = Value.as_string args.(0) and i = Value.as_int args.(1) in
          if i < 0 || i >= String.length s then
            raise (Value.Planp_raise "OutOfBounds")
          else Value.Vchar s.[i]);
      pure "substr" [ Ptype.Tstring; Ptype.Tint; Ptype.Tint ] Ptype.Tstring
        (fun args ->
          let s = Value.as_string args.(0)
          and pos = Value.as_int args.(1)
          and len = Value.as_int args.(2) in
          if pos < 0 || len < 0 || pos + len > String.length s then
            raise (Value.Planp_raise "OutOfBounds")
          else Value.Vstring (String.sub s pos len));
      pure "strFind" [ Ptype.Tstring; Ptype.Tstring ] Ptype.Tint (fun args ->
          let haystack = Value.as_string args.(0)
          and needle = Value.as_string args.(1) in
          let hlen = String.length haystack and nlen = String.length needle in
          let rec search i =
            if i + nlen > hlen then -1
            else if String.sub haystack i nlen = needle then i
            else search (i + 1)
          in
          v (search 0));
      pure "stob" [ Ptype.Tstring ] Ptype.Tblob (fun args ->
          Value.Vblob (Netsim.Payload.of_string (Value.as_string args.(0))));
      pure "btos" [ Ptype.Tblob ] Ptype.Tstring (fun args ->
          Value.Vstring (Netsim.Payload.to_string (Value.as_blob args.(0))));
      pure "blobLength" [ Ptype.Tblob ] Ptype.Tint (fun args ->
          v (Netsim.Payload.length (Value.as_blob args.(0))));
      pure "blobByte" [ Ptype.Tblob; Ptype.Tint ] Ptype.Tint (fun args ->
          let blob = Value.as_blob args.(0) and off = Value.as_int args.(1) in
          if off < 0 || off >= Netsim.Payload.length blob then
            raise (Value.Planp_raise "OutOfBounds")
          else v (Netsim.Payload.get_u8 blob off));
      pure "blobU32" [ Ptype.Tblob; Ptype.Tint ] Ptype.Tint (fun args ->
          let blob = Value.as_blob args.(0) and off = Value.as_int args.(1) in
          if off < 0 || off + 4 > Netsim.Payload.length blob then
            raise (Value.Planp_raise "OutOfBounds")
          else v (Netsim.Payload.get_u32 blob off));
      pure "blobSub" [ Ptype.Tblob; Ptype.Tint; Ptype.Tint ] Ptype.Tblob
        (fun args ->
          let blob = Value.as_blob args.(0)
          and pos = Value.as_int args.(1)
          and len = Value.as_int args.(2) in
          if pos < 0 || len < 0 || pos + len > Netsim.Payload.length blob then
            raise (Value.Planp_raise "OutOfBounds")
          else Value.Vblob (Netsim.Payload.sub blob ~pos ~len));
      pure "blobConcat" [ Ptype.Tblob; Ptype.Tblob ] Ptype.Tblob (fun args ->
          Value.Vblob
            (Netsim.Payload.concat
               [ Value.as_blob args.(0); Value.as_blob args.(1) ]));
      pure "even" [ Ptype.Tint ] Ptype.Tbool (fun args ->
          vb (Value.as_int args.(0) mod 2 = 0));
    ]
