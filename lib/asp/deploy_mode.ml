module Node = Netsim.Node
module Runtime = Planp_runtime.Runtime

type t = Preinstalled | In_band

let to_string = function Preinstalled -> "preinstalled" | In_band -> "in-band"

let of_string = function
  | "preinstalled" -> Some Preinstalled
  | "in-band" | "inband" -> Some In_band
  | _ -> None

type plane = {
  find : Node.t -> string -> Runtime.program option;
  ctl : Deploy.Controller.t option;
  daemon_of : Node.t -> Deploy.Daemon.t option;
}

let find plane = plane.find
let controller plane = plane.ctl
let daemon plane = plane.daemon_of

(* Group programs by (name, source): identical programs for several nodes
   ship as one staged rollout instead of independent deployments. *)
let group programs =
  List.fold_left
    (fun groups (node, name, source) ->
      match List.assoc_opt (name, source) groups with
      | Some nodes ->
          nodes := node :: !nodes;
          groups
      | None -> ((name, source), ref [ node ]) :: groups)
    [] programs
  |> List.rev_map (fun (key, nodes) -> (key, List.rev !nodes))
  |> List.rev

let preinstall ~backend programs =
  let runtimes = Hashtbl.create 8 in
  let runtime_for node =
    match Hashtbl.find_opt runtimes (Node.name node) with
    | Some rt -> rt
    | None ->
        let rt = Runtime.attach node in
        Hashtbl.replace runtimes (Node.name node) rt;
        rt
  in
  let handles =
    List.map
      (fun (node, name, source) ->
        ( (Node.name node, name),
          Runtime.install_exn (runtime_for node) ~backend ~name ~source () ))
      programs
  in
  {
    find = (fun node name -> List.assoc_opt (Node.name node, name) handles);
    ctl = None;
    daemon_of = (fun _ -> None);
  }

let fail_outcome ~name ~node outcome =
  failwith
    (Printf.sprintf "in-band deploy of %s to %s failed: %s" name node
       (Deploy.Controller.outcome_to_string outcome))

let ship ~backend ~controller programs =
  let backend = backend.Planp_runtime.Backend.backend_name in
  let daemons = Hashtbl.create 8 in
  let daemon_for node =
    match Hashtbl.find_opt daemons (Node.name node) with
    | Some daemon -> daemon
    | None ->
        let daemon = Deploy.Daemon.start node () in
        Hashtbl.replace daemons (Node.name node) daemon;
        daemon
  in
  List.iter
    (fun (node, _, _) -> ignore (daemon_for node))
    programs;
  let ctl = Deploy.Controller.create controller () in
  List.iter
    (fun ((name, source), nodes) ->
      Deploy.Controller.rollout ctl ~backend ~concurrency:2
        ~on_nak:Deploy.Controller.Abort
        ~targets:(List.map Node.addr nodes)
        ~name ~source
        ~on_done:
          (* One outcome per target, in [nodes] order. *)
          (List.iter2
             (fun node (_, outcome) ->
               match outcome with
               | Deploy.Controller.Acked _ -> ()
               | outcome -> fail_outcome ~name ~node:(Node.name node) outcome)
             nodes)
        ())
    (group programs);
  {
    find =
      (fun node name ->
        match Hashtbl.find_opt daemons (Node.name node) with
        | Some daemon -> Deploy.Daemon.active_program daemon ~name
        | None -> None);
    ctl = Some ctl;
    daemon_of = (fun node -> Hashtbl.find_opt daemons (Node.name node));
  }

let install mode ~backend ~controller ~programs () =
  match mode with
  | Preinstalled -> preinstall ~backend programs
  | In_band -> ship ~backend ~controller programs
