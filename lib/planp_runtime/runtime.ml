module Ast = Planp.Ast
module Node = Netsim.Node
module Packet = Netsim.Packet

type stats = {
  mutable handled : int;
  mutable fallthrough : int;
  mutable errors : int;
}

type chan_slot = {
  chan : Ast.channel;
  decode : Packet.t -> Value.t option;  (* [Pkt_codec.decoder] of its type *)
  exec : Backend.chan_exec;
  mutable chan_state : Value.t;
  mutable hits : int;
}

type program = {
  prog_name : string;
  mutable proto : Value.t;
  slots : chan_slot list;
}

type t = {
  rt_node : Node.t;
  mutable programs : program list;  (* installation order *)
  rt_stats : stats;
  m_handled : Obs.Registry.counter;
  m_fallthrough : Obs.Registry.counter;
  m_errors : Obs.Registry.counter;
  out : Buffer.t;
  resource_bound : int option;
  (* The world for packets from interface [i] sits at [i + 1] (index 0 is
     [inject]'s -1), built on first use. *)
  mutable worlds : World.t option array;
}

type error =
  | Parse_error of string
  | Type_error of string
  | Rejected of string

let error_to_string = function
  | Parse_error message -> "parse error: " ^ message
  | Type_error message -> "type error: " ^ message
  | Rejected message -> "rejected: " ^ message

let node t = t.rt_node
let stats t = t.rt_stats
let installed_programs t = t.programs
let program_name program = program.prog_name
let proto_state program = program.proto

let channel_hits program =
  List.map
    (fun slot ->
      ( slot.chan.Ast.chan_name,
        Planp.Ptype.to_string slot.chan.Ast.pkt_type,
        slot.hits ))
    program.slots

let channel_state program chan_name index =
  let overloads =
    List.filter
      (fun slot -> String.equal slot.chan.Ast.chan_name chan_name)
      program.slots
  in
  List.nth_opt overloads index
  |> Option.map (fun slot -> slot.chan_state)

let output t = Buffer.contents t.out

(* The world visible to a program executing on this node for a packet that
   arrived on [ifindex]. Everything it observes is read at call time: a
   partitioned run re-homes the node onto another engine after the world
   may have been built. *)
let make_world t ~ifindex =
  let node = t.rt_node in
  {
    World.now = (fun () -> Netsim.Engine.now (Node.engine node));
    node_addr = (fun () -> Node.addr node);
    iface_load_bps =
      (fun i ->
        if i >= 0 && i < Node.iface_count node then Node.iface_load_bps node i
        else 0.0);
    iface_capacity_bps =
      (fun i ->
        if i >= 0 && i < Node.iface_count node then
          Node.iface_capacity_bps node i
        else 0.0);
    incoming_iface = ifindex;
    emit =
      (fun target ~chan value ->
        let packet = Pkt_codec.encode ~chan value in
        let packet =
          match t.resource_bound with
          | Some bound when packet.Packet.ttl > bound ->
              { packet with Packet.ttl = bound }
          | Some _ | None -> packet
        in
        match target with
        | World.Remote -> Node.forward node ~ifindex packet
        | World.Neighbor -> (
            match Packet.decrement_ttl packet with
            | None -> ()
            | Some packet ->
                for out = 0 to Node.iface_count node - 1 do
                  if out <> ifindex then
                    Node.transmit node ~ifindex:out ~l2_dst:None
                      (Packet.clone packet)
                done));
    deliver =
      (fun value ->
        let packet = Pkt_codec.encode ~chan:Ast.network_channel value in
        Node.deliver_local node packet);
    print = (fun s -> Buffer.add_string t.out s);
  }

let world t ~ifindex =
  let index = ifindex + 1 in
  if index < 0 then make_world t ~ifindex
  else begin
    if index >= Array.length t.worlds then begin
      let grown = Array.make (index + 1) None in
      Array.blit t.worlds 0 grown 0 (Array.length t.worlds);
      t.worlds <- grown
    end;
    match t.worlds.(index) with
    | Some world -> world
    | None ->
        let world = make_world t ~ifindex in
        t.worlds.(index) <- Some world;
        world
  end

(* Install-time world: initializers may print but not touch the network. *)
let bootstrap_world t =
  let world = make_world t ~ifindex:(-1) in
  {
    world with
    World.emit =
      (fun _ ~chan:_ _ ->
        raise (Value.Runtime_error "initializer may not send packets"));
    deliver =
      (fun _ ->
        raise (Value.Runtime_error "initializer may not deliver packets"));
  }

let tag_matches slot (packet : Packet.t) =
  match packet.Packet.chan_tag with
  | None -> String.equal slot.chan.Ast.chan_name Ast.network_channel
  | Some tag -> String.equal slot.chan.Ast.chan_name tag

(* Find the first (program, slot, decoded packet) treating this packet. *)
let dispatch t packet =
  let rec find_program = function
    | [] -> None
    | program :: rest -> (
        let rec find_slot = function
          | [] -> None
          | slot :: slots ->
              if tag_matches slot packet then
                match slot.decode packet with
                | Some value -> Some (program, slot, value)
                | None -> find_slot slots
              else find_slot slots
        in
        match find_slot program.slots with
        | Some result -> Some result
        | None -> find_program rest)
  in
  find_program t.programs

let process t ~ifindex ~l2_dst packet =
  match dispatch t packet with
  | None ->
      t.rt_stats.fallthrough <- t.rt_stats.fallthrough + 1;
      Obs.Registry.incr t.m_fallthrough;
      Node.default_process t.rt_node ~ifindex ~l2_dst packet
  | Some (program, slot, pkt_value) -> (
      try
        let ps', ss' =
          slot.exec (world t ~ifindex) ~ps:program.proto ~ss:slot.chan_state
            ~pkt:pkt_value
        in
        program.proto <- ps';
        slot.chan_state <- ss';
        slot.hits <- slot.hits + 1;
        t.rt_stats.handled <- t.rt_stats.handled + 1;
        Obs.Registry.incr t.m_handled
      with Value.Planp_raise _ ->
        t.rt_stats.errors <- t.rt_stats.errors + 1;
        Obs.Registry.incr t.m_errors)

let attach ?resource_bound rt_node =
  Prims.install ();
  (match resource_bound with
  | Some bound when bound <= 0 ->
      invalid_arg "Runtime.attach: resource_bound must be positive"
  | Some _ | None -> ());
  let labels = [ ("node", Node.name rt_node) ] in
  let t =
    {
      rt_node;
      programs = [];
      rt_stats = { handled = 0; fallthrough = 0; errors = 0 };
      m_handled =
        Obs.Registry.counter ~labels ~help:"packets treated by an ASP"
          "planp.runtime.handled";
      m_fallthrough =
        Obs.Registry.counter ~labels ~help:"packets left to standard IP"
          "planp.runtime.fallthrough";
      m_errors =
        Obs.Registry.counter ~labels ~help:"uncaught PLAN-P exceptions"
          "planp.runtime.errors";
      out = Buffer.create 256;
      resource_bound;
      worlds = [||];
    }
  in
  Node.set_hook rt_node (fun _node ~ifindex ~l2_dst packet ->
      process t ~ifindex ~l2_dst packet);
  t

let default_pre _checked = Ok ()

let install ?(backend = Interp.backend) ?(pre = default_pre) ?(name = "asp") t
    ~source () =
  Prims.install ();
  match
    try Ok (Planp.Parser.parse source) with
    | Planp.Lexer.Error (message, loc) ->
        Error
          (Parse_error (Printf.sprintf "%s at %s" message (Planp.Loc.to_string loc)))
    | Planp.Parser.Error (message, loc) ->
        Error
          (Parse_error (Printf.sprintf "%s at %s" message (Planp.Loc.to_string loc)))
  with
  | Error error -> Error error
  | Ok ast -> (
      match Planp.Typecheck.check ~prims:Prim.type_lookup ast with
      | Error type_error ->
          Error
            (Type_error (Format.asprintf "%a" Planp.Typecheck.pp_error type_error))
      | Ok checked -> (
          match pre checked with
          | Error message -> Error (Rejected message)
          | Ok () ->
              let world = bootstrap_world t in
              let globals =
                Interp.eval_globals ~world checked.Planp.Typecheck.program
              in
              let proto =
                match checked.Planp.Typecheck.proto_init with
                | Some init -> Interp.eval_const ~world ~globals init
                | None -> Value.default_of checked.Planp.Typecheck.proto_type
              in
              let compiled = backend.Backend.compile checked ~globals in
              let slots =
                List.map
                  (fun (chan, exec) ->
                    let chan_state =
                      match chan.Ast.initstate with
                      | Some init -> Interp.eval_const ~world ~globals init
                      | None -> Value.default_of chan.Ast.ss_type
                    in
                    {
                      chan;
                      decode = Pkt_codec.decoder chan.Ast.pkt_type;
                      exec;
                      chan_state;
                      hits = 0;
                    })
                  compiled
              in
              let program = { prog_name = name; proto; slots } in
              t.programs <- t.programs @ [ program ];
              Ok program))

let install_exn ?backend ?pre ?name t ~source () =
  match install ?backend ?pre ?name t ~source () with
  | Ok program -> program
  | Error error -> failwith (error_to_string error)

let uninstall t program =
  t.programs <- List.filter (fun p -> p != program) t.programs

let inject ?(ifindex = -1) t packet =
  process t ~ifindex ~l2_dst:None packet
