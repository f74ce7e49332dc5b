module Ptype = Planp.Ptype
module Packet = Netsim.Packet

let pure = Prim.pure

(* deliver takes any packet-shaped tuple; its type function validates that. *)
let deliver_type_fn = function
  | [ ty ] when Ptype.is_packet ty -> Ok Ptype.Tunit
  | [ ty ] -> Error (Printf.sprintf "expected a packet tuple, got %s" (Ptype.to_string ty))
  | args -> Error (Printf.sprintf "expected 1 argument, got %d" (List.length args))

let install () =
  List.iter Prim.register
    [
      pure "ipSrc" [ Ptype.Tip ] Ptype.Thost (fun args ->
          Value.Vhost (Value.as_ip args.(0)).Value.vsrc);
      pure "ipDst" [ Ptype.Tip ] Ptype.Thost (fun args ->
          Value.Vhost (Value.as_ip args.(0)).Value.vdst);
      pure "ipTtl" [ Ptype.Tip ] Ptype.Tint (fun args ->
          Value.Vint (Value.as_ip args.(0)).Value.vttl);
      pure "ipSrcSet" [ Ptype.Tip; Ptype.Thost ] Ptype.Tip (fun args ->
          Value.Vip
            { (Value.as_ip args.(0)) with Value.vsrc = Value.as_host args.(1) });
      pure "ipDestSet" [ Ptype.Tip; Ptype.Thost ] Ptype.Tip (fun args ->
          Value.Vip
            { (Value.as_ip args.(0)) with Value.vdst = Value.as_host args.(1) });
      pure "tcpSrc" [ Ptype.Ttcp ] Ptype.Tint (fun args ->
          Value.Vint (Value.as_tcp args.(0)).Packet.tcp_src);
      pure "tcpDst" [ Ptype.Ttcp ] Ptype.Tint (fun args ->
          Value.Vint (Value.as_tcp args.(0)).Packet.tcp_dst);
      pure "tcpSeq" [ Ptype.Ttcp ] Ptype.Tint (fun args ->
          Value.Vint (Value.as_tcp args.(0)).Packet.tcp_seq);
      pure "tcpAck" [ Ptype.Ttcp ] Ptype.Tint (fun args ->
          Value.Vint (Value.as_tcp args.(0)).Packet.tcp_ack);
      pure "tcpSyn" [ Ptype.Ttcp ] Ptype.Tbool (fun args ->
          Value.vbool (Value.as_tcp args.(0)).Packet.tcp_syn);
      pure "tcpFin" [ Ptype.Ttcp ] Ptype.Tbool (fun args ->
          Value.vbool (Value.as_tcp args.(0)).Packet.tcp_fin);
      pure "tcpIsAck" [ Ptype.Ttcp ] Ptype.Tbool (fun args ->
          Value.vbool (Value.as_tcp args.(0)).Packet.tcp_is_ack);
      pure "tcpSrcSet" [ Ptype.Ttcp; Ptype.Tint ] Ptype.Ttcp (fun args ->
          let port = Value.as_int args.(1) in
          Value.Vtcp { (Value.as_tcp args.(0)) with Packet.tcp_src = port });
      pure "tcpDstSet" [ Ptype.Ttcp; Ptype.Tint ] Ptype.Ttcp (fun args ->
          let port = Value.as_int args.(1) in
          Value.Vtcp { (Value.as_tcp args.(0)) with Packet.tcp_dst = port });
      pure "udpSrc" [ Ptype.Tudp ] Ptype.Tint (fun args ->
          Value.Vint (Value.as_udp args.(0)).Packet.udp_src);
      pure "udpDst" [ Ptype.Tudp ] Ptype.Tint (fun args ->
          Value.Vint (Value.as_udp args.(0)).Packet.udp_dst);
      pure "udpSrcSet" [ Ptype.Tudp; Ptype.Tint ] Ptype.Tudp (fun args ->
          let port = Value.as_int args.(1) in
          Value.Vudp { (Value.as_udp args.(0)) with Packet.udp_src = port });
      pure "udpDstSet" [ Ptype.Tudp; Ptype.Tint ] Ptype.Tudp (fun args ->
          let port = Value.as_int args.(1) in
          Value.Vudp { (Value.as_udp args.(0)) with Packet.udp_dst = port });
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
      };
    ]
