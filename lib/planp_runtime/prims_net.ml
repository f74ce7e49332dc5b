module Ptype = Planp.Ptype
module Packet = Netsim.Packet

let pure = Prim.pure

(* deliver takes any packet-shaped tuple; its type function validates that. *)
let deliver_type_fn = function
  | [ ty ] when Ptype.is_packet ty -> Ok Ptype.Tunit
  | [ ty ] -> Error (Printf.sprintf "expected a packet tuple, got %s" (Ptype.to_string ty))
  | args -> Error (Printf.sprintf "expected 1 argument, got %d" (List.length args))

(* Header readers and setters register their unboxed entry next to the
   boxed one; the boxed one is the unboxed one plus the boxing. *)
let int_reader name header result read =
  let box = if Ptype.equal result Ptype.Thost then (fun n -> Value.Vhost n) else (fun n -> Value.Vint n) in
  Prim.with_typed (Prim.Read_int read)
    (pure name [ header ] result (fun args -> box (read args.(0))))

let bool_reader name read =
  Prim.with_typed (Prim.Read_bool read)
    (pure name [ Ptype.Ttcp ] Ptype.Tbool (fun args ->
         Value.vbool (read args.(0))))

let setter name header field set =
  let unbox = if Ptype.equal field Ptype.Thost then Value.as_host else Value.as_int in
  Prim.with_typed (Prim.With_int set)
    (pure name [ header; field ] header (fun args ->
         set args.(0) (unbox args.(1))))

let install () =
  List.iter Prim.register
    [
      int_reader "ipSrc" Ptype.Tip Ptype.Thost (fun v -> (Value.as_ip v).Value.vsrc);
      int_reader "ipDst" Ptype.Tip Ptype.Thost (fun v -> (Value.as_ip v).Value.vdst);
      int_reader "ipTtl" Ptype.Tip Ptype.Tint (fun v -> (Value.as_ip v).Value.vttl);
      setter "ipSrcSet" Ptype.Tip Ptype.Thost (fun v h ->
          Value.Vip { (Value.as_ip v) with Value.vsrc = h });
      setter "ipDestSet" Ptype.Tip Ptype.Thost (fun v h ->
          Value.Vip { (Value.as_ip v) with Value.vdst = h });
      int_reader "tcpSrc" Ptype.Ttcp Ptype.Tint (fun v -> (Value.as_tcp v).Packet.tcp_src);
      int_reader "tcpDst" Ptype.Ttcp Ptype.Tint (fun v -> (Value.as_tcp v).Packet.tcp_dst);
      int_reader "tcpSeq" Ptype.Ttcp Ptype.Tint (fun v -> (Value.as_tcp v).Packet.tcp_seq);
      int_reader "tcpAck" Ptype.Ttcp Ptype.Tint (fun v -> (Value.as_tcp v).Packet.tcp_ack);
      bool_reader "tcpSyn" (fun v -> (Value.as_tcp v).Packet.tcp_syn);
      bool_reader "tcpFin" (fun v -> (Value.as_tcp v).Packet.tcp_fin);
      bool_reader "tcpIsAck" (fun v -> (Value.as_tcp v).Packet.tcp_is_ack);
      setter "tcpSrcSet" Ptype.Ttcp Ptype.Tint (fun v port ->
          Value.Vtcp { (Value.as_tcp v) with Packet.tcp_src = port });
      setter "tcpDstSet" Ptype.Ttcp Ptype.Tint (fun v port ->
          Value.Vtcp { (Value.as_tcp v) with Packet.tcp_dst = port });
      int_reader "udpSrc" Ptype.Tudp Ptype.Tint (fun v -> (Value.as_udp v).Packet.udp_src);
      int_reader "udpDst" Ptype.Tudp Ptype.Tint (fun v -> (Value.as_udp v).Packet.udp_dst);
      setter "udpSrcSet" Ptype.Tudp Ptype.Tint (fun v port ->
          Value.Vudp { (Value.as_udp v) with Packet.udp_src = port });
      setter "udpDstSet" Ptype.Tudp Ptype.Tint (fun v port ->
          Value.Vudp { (Value.as_udp v) with Packet.udp_dst = port });
      pure "mkUdp" [ Ptype.Tint; Ptype.Tint ] Ptype.Tudp (fun args ->
          Value.Vudp
            {
              Packet.udp_src = Value.as_int args.(0);
              udp_dst = Value.as_int args.(1);
            });
      pure "isMulticast" [ Ptype.Thost ] Ptype.Tbool (fun args ->
          Value.vbool (Netsim.Addr.is_multicast (Value.as_host args.(0))));
      (* The packed 32-bit value of an address, for hashing-style load
         balancing decisions. *)
      pure "hostBits" [ Ptype.Thost ] Ptype.Tint (fun args ->
          Value.Vint (Value.as_host args.(0)));
      Prim.impure "thisHost" [] Ptype.Thost (fun world _args ->
          Value.Vhost (world.World.node_addr ()));
      {
        Prim.prim_name = "deliver";
        type_fn = deliver_type_fn;
        impl =
          (fun world args ->
            Prim.check_arity 1 args;
            world.World.deliver args.(0);
            Value.Vunit);
        pure = false;
        typed = Prim.Boxed;
      };
    ]
