module Ptype = Planp.Ptype

(* Node-environment primitives: what a program can observe about the router
   it runs on. [linkLoad]/[linkCapacity] report in kilobytes per second,
   matching the paper's Fig. 6 units. *)

let kbytes_per_s bps = int_of_float (bps /. 8.0 /. 1000.0)

let install () =
  List.iter Prim.register
    [
      Prim.impure "linkLoad" [ Ptype.Tint ] Ptype.Tint (fun world args ->
          Value.Vint
            (kbytes_per_s (world.World.iface_load_bps (Value.as_int args.(0)))));
      Prim.impure "linkCapacity" [ Ptype.Tint ] Ptype.Tint (fun world args ->
          Value.Vint
            (kbytes_per_s
               (world.World.iface_capacity_bps (Value.as_int args.(0)))));
      Prim.impure "thisIface" [] Ptype.Tint (fun world _args ->
          Value.Vint world.World.incoming_iface);
      Prim.impure "timeMs" [] Ptype.Tint (fun world _args ->
          Value.Vint (int_of_float (world.World.now () *. 1000.0)));
    ]
