module Ptype = Planp.Ptype
module Packet = Netsim.Packet
module Payload = Netsim.Payload

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

let scalar_width = function
  | Ptype.Tchar | Ptype.Tbool -> Some 1
  | Ptype.Tint | Ptype.Thost -> Some 4
  | _ -> None

let rec payload_layout_ok = function
  | [] -> true
  | [ Ptype.Tblob ] -> true
  | [ Ptype.Tstring ] -> true
  | component :: rest ->
      (match scalar_width component with
      | Some _ -> true
      | None -> Ptype.equal component Ptype.Tstring)
      && payload_layout_ok rest

let layout_ok pkt_type =
  match split_type pkt_type with
  | Some (_, payload) -> payload_layout_ok payload
  | None -> false

let ip_view_of (packet : Packet.t) =
  {
    Value.vsrc = packet.Packet.src;
    vdst = packet.Packet.dst;
    vttl = packet.Packet.ttl;
  }

(* Decode the packet body against the payload components, storing their
   values into [values] from index [first] on. False when the body does not
   match the layout exactly. *)
let fill_payload layout body values first =
  let len = Payload.length body in
  let last = Array.length layout - 1 in
  let rec go i pos =
    if i > last then pos = len
    else
      let slot = first + i in
      match layout.(i) with
      | Ptype.Tblob ->
          if i < last then false
          else begin
            values.(slot) <-
              Value.Vblob (Payload.sub body ~pos ~len:(len - pos));
            true
          end
      | Ptype.Tchar ->
          if pos + 1 > len then false
          else begin
            values.(slot) <- Value.Vchar (Char.chr (Payload.get_u8 body pos));
            go (i + 1) (pos + 1)
          end
      | Ptype.Tbool ->
          if pos + 1 > len then false
          else
            let byte = Payload.get_u8 body pos in
            if byte > 1 then false
            else begin
              values.(slot) <- Value.vbool (byte = 1);
              go (i + 1) (pos + 1)
            end
      | Ptype.Tint ->
          if pos + 4 > len then false
          else begin
            (* sign-extend from 32 bits *)
            let raw = Payload.get_u32 body pos in
            let n =
              if raw land 0x80000000 <> 0 then raw - (1 lsl 32) else raw
            in
            values.(slot) <- Value.Vint n;
            go (i + 1) (pos + 4)
          end
      | Ptype.Thost ->
          if pos + 4 > len then false
          else begin
            values.(slot) <- Value.Vhost (Payload.get_u32 body pos);
            go (i + 1) (pos + 4)
          end
      | Ptype.Tstring ->
          if pos + 2 > len then false
          else
            let slen = Payload.get_u16 body pos in
            if pos + 2 + slen > len then false
            else begin
              let s =
                Payload.to_string (Payload.sub body ~pos:(pos + 2) ~len:slen)
              in
              values.(slot) <- Value.Vstring s;
              go (i + 1) (pos + 2 + slen)
            end
      | Ptype.Tunit | Ptype.Tip | Ptype.Ttcp | Ptype.Tudp | Ptype.Ttuple _
      | Ptype.Thash _ | Ptype.Thash_any ->
          false
  in
  go 0 0

let decoder pkt_type =
  match split_type pkt_type with
  | None -> fun _ -> None
  | Some (transport, payload_components) ->
      let layout = Array.of_list payload_components in
      let first = match transport with `Tcp | `Udp -> 2 | `Any -> 1 in
      let width = first + Array.length layout in
      (* [values] arrives filled with the transport component, which is
         slot 1 when there is one; the ip header and the payload
         components overwrite the other slots. *)
      let finish values (packet : Packet.t) =
        values.(0) <- Value.Vip (ip_view_of packet);
        if fill_payload layout packet.Packet.body values first then
          Some (Value.Vtuple values)
        else None
      in
      fun (packet : Packet.t) ->
        match (transport, packet.Packet.l4) with
        | `Tcp, Packet.Tcp header ->
            finish (Array.make width (Value.Vtcp header)) packet
        | `Udp, Packet.Udp header ->
            finish (Array.make width (Value.Vudp header)) packet
        | `Any, _ -> finish (Array.make width Value.Vunit) packet
        | (`Tcp | `Udp), _ -> None

let decode pkt_type = decoder pkt_type

let matches pkt_type packet = Option.is_some (decode pkt_type packet)

let write_component writer component =
  match component with
  | Value.Vchar c -> Payload.Writer.u8 writer (Char.code c)
  | Value.Vbool b -> Payload.Writer.u8 writer (if b then 1 else 0)
  | Value.Vint n -> Payload.Writer.u32 writer (n land 0xffffffff)
  | Value.Vhost h -> Payload.Writer.u32 writer h
  | Value.Vstring s ->
      if String.length s > 0xffff then
        raise (Value.Runtime_error "string too long for packet payload");
      Payload.Writer.u16 writer (String.length s);
      Payload.Writer.string writer s
  | Value.Vblob payload -> Payload.Writer.raw writer payload
  | Value.Vunit | Value.Vip _ | Value.Vtcp _ | Value.Vudp _ | Value.Vtuple _
  | Value.Vtable _ ->
      Value.type_error ~expected:"payload component" component

(* Encode components [start..] of the packet tuple.  A trailing blob (the
   only place the layout admits one) is chained on as a rope part instead
   of being copied byte-by-byte: re-emitting a packet whose payload is a
   decoded blob costs O(1). *)
let encode_payload components start =
  let n = Array.length components in
  if start >= n then Payload.empty
  else
    let trailing_blob =
      match components.(n - 1) with Value.Vblob p -> Some p | _ -> None
    in
    match trailing_blob with
    | Some payload when start = n - 1 -> payload
    | _ -> (
        let writer = Payload.Writer.create () in
        let stop = match trailing_blob with Some _ -> n - 1 | None -> n in
        for i = start to stop - 1 do
          write_component writer components.(i)
        done;
        let prefix = Payload.Writer.finish writer in
        match trailing_blob with
        | Some payload -> Payload.concat [ prefix; payload ]
        | None -> prefix)

let encode ~chan value =
  let components = Value.as_tuple value in
  if Array.length components = 0 then
    raise (Value.Runtime_error "packet value must start with an ip header");
  match components.(0) with
  | Value.Vip ip ->
      let l4, payload_start =
        if Array.length components >= 2 then
          match components.(1) with
          | Value.Vtcp header -> (Packet.Tcp header, 2)
          | Value.Vudp header -> (Packet.Udp header, 2)
          | _ -> (Packet.Raw, 1)
        else (Packet.Raw, 1)
      in
      let chan_tag =
        if String.equal chan Planp.Ast.network_channel then None else Some chan
      in
      Packet.make ~ttl:ip.Value.vttl ?chan_tag ~src:ip.Value.vsrc
        ~dst:ip.Value.vdst l4
        (encode_payload components payload_start)
  | _ -> raise (Value.Runtime_error "packet value must start with an ip header")
