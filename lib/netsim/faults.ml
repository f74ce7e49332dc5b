type target = Tlink of string | Tsegment of string | Tnode of string

type kind =
  | Link_down
  | Loss of float
  | Corrupt of float
  | Congest of { bandwidth_factor : float; queue_factor : float }
  | Crash of { wipe : bool }
  | Reroute

type event = {
  ft_at : float;
  ft_until : float option;
  ft_kind : kind;
  ft_target : target option;
}

type scenario = { seed : int; events : event list }

let empty = { seed = 0; events = [] }
let scenario_of_events ?(seed = 0) events = { seed; events }

(* ------------------------------------------------------------------ *)
(* Scenario RNG: xorshift64*, private to the fault plane so Netsim     *)
(* keeps its no-dependency-on-Asp layering.  Same construction as      *)
(* Asp.Rng: deterministic across platforms.                            *)
(* ------------------------------------------------------------------ *)

type rng = { mutable state : int64 }

let rng_create ~seed = { state = Int64.of_int (if seed = 0 then 0x9E3779B9 else seed) }

let rng_next rng =
  let open Int64 in
  let x = rng.state in
  let x = logxor x (shift_left x 13) in
  let x = logxor x (shift_right_logical x 7) in
  let x = logxor x (shift_left x 17) in
  rng.state <- x;
  mul x 0x2545F4914F6CDD1DL

let rng_float rng =
  let bits = Int64.shift_right_logical (rng_next rng) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

(* ------------------------------------------------------------------ *)
(* Scenario-file parser                                                *)
(* ------------------------------------------------------------------ *)

let field = Line_format.field
let fail = Line_format.fail

let rec congest_opts ~bandwidth ~queue = function
  | [] -> Congest { bandwidth_factor = bandwidth; queue_factor = queue }
  | "bandwidth" :: v :: rest ->
      congest_opts ~bandwidth:(field Factor "bandwidth" v) ~queue rest
  | "queue" :: v :: rest ->
      congest_opts ~bandwidth ~queue:(field Factor "queue" v) rest
  | token :: _ -> fail "congest: unknown option %s" token

(* The body of an event line, after [at T [until T2]] has been consumed. *)
let parse_body = function
  | [ "link"; "down"; name ] -> (Link_down, Some (Tlink name))
  | [ "link"; "loss"; name; p ] ->
      (Loss (field Probability "link loss" p), Some (Tlink name))
  | [ "link"; "corrupt"; name; p ] ->
      (Corrupt (field Probability "link corrupt" p), Some (Tlink name))
  | [ "segment"; "loss"; name; p ] ->
      (Loss (field Probability "segment loss" p), Some (Tsegment name))
  | [ "segment"; "corrupt"; name; p ] ->
      (Corrupt (field Probability "segment corrupt" p), Some (Tsegment name))
  | "congest" :: name :: opts ->
      (congest_opts ~bandwidth:1.0 ~queue:1.0 opts, Some (Tlink name))
  | [ "node"; "crash"; name ] -> (Crash { wipe = false }, Some (Tnode name))
  | [ "node"; "crash-wipe"; name ] -> (Crash { wipe = true }, Some (Tnode name))
  | [ "reroute" ] -> (Reroute, None)
  | [] -> fail "missing fault after time spec"
  | token :: _ -> fail "unknown fault %s" token

let parse_line scenario = function
  | [ "seed"; n ] -> { scenario with seed = field Int "seed" n }
  | "at" :: t :: rest ->
      let ft_at = field Finite "at" t in
      let ft_until, body =
        match rest with
        | "until" :: t2 :: body ->
            let u = field Finite "until" t2 in
            if u < ft_at then fail "until %g is before at %g" u ft_at;
            (Some u, body)
        | body -> (None, body)
      in
      let ft_kind, ft_target = parse_body body in
      let event = { ft_at; ft_until; ft_kind; ft_target } in
      { scenario with events = event :: scenario.events }
  | token :: _ -> fail "expected 'seed' or 'at', got %s" token
  | [] -> scenario

let parse_scenario text =
  Result.map
    (fun scenario -> { scenario with events = List.rev scenario.events })
    (Line_format.parse parse_line empty text)

(* ------------------------------------------------------------------ *)
(* Arming                                                              *)
(* ------------------------------------------------------------------ *)

(* Loss/corruption tallies are batched in the shared {!Impair} records
   and flushed here on every engine flush, so the per-packet path never
   touches a registry handle. *)
type tracked = {
  tr_impair : Impair.t;
  tr_m_lost : Obs.Registry.counter;
  tr_m_corrupted : Obs.Registry.counter;
  mutable tr_f_lost : int;
  mutable tr_f_corrupted : int;
}

type medium = Mlink of Link.t | Msegment of Segment.t

type handle = {
  h_topo : Topology.t;
  h_rng : rng;
  mutable h_restart_hooks : (Node.t -> unit) list;
  mutable h_injected : int;
  mutable h_tracked : (medium * tracked) list;
}

let injected handle = handle.h_injected

let on_restart handle f =
  handle.h_restart_hooks <- handle.h_restart_hooks @ [ f ]

let m_injected kind_label =
  Obs.Registry.counter
    ~labels:[ ("kind", kind_label) ]
    ~help:"fault events injected, by kind" "netsim.faults.injected"

let medium_name = function
  | Mlink link -> Link.name link
  | Msegment seg -> Segment.name seg

let flush_tracked (_, tr) =
  let dl = tr.tr_impair.Impair.lost - tr.tr_f_lost in
  if dl > 0 then begin
    Obs.Registry.add tr.tr_m_lost dl;
    tr.tr_f_lost <- tr.tr_impair.Impair.lost
  end;
  let dc = tr.tr_impair.Impair.corrupted - tr.tr_f_corrupted in
  if dc > 0 then begin
    Obs.Registry.add tr.tr_m_corrupted dc;
    tr.tr_f_corrupted <- tr.tr_impair.Impair.corrupted
  end

(* The impairment attached to a medium by this handle; created (and its
   flush registered) on first use.  The record survives rate windows
   closing — the medium's [impair] field is dropped back to [None] when
   both rates reach zero, restoring the zero-cost idle path. *)
let same_medium a b =
  match (a, b) with
  | Mlink l1, Mlink l2 -> l1 == l2
  | Msegment s1, Msegment s2 -> s1 == s2
  | (Mlink _ | Msegment _), _ -> false

let tracked_for handle medium =
  match
    List.find_opt (fun (m, _) -> same_medium m medium) handle.h_tracked
  with
  | Some (_, tr) -> tr
  | None ->
      let rng = handle.h_rng in
      let name = medium_name medium in
      let tr =
        {
          tr_impair = Impair.create ~rand:(fun () -> rng_float rng);
          tr_m_lost =
            Obs.Registry.counter
              ~labels:[ ("target", name) ]
              ~help:"packets lost to injected loss" "netsim.faults.lost_packets";
          tr_m_corrupted =
            Obs.Registry.counter
              ~labels:[ ("target", name) ]
              ~help:"packets corrupted by injected faults"
              "netsim.faults.corrupted_packets";
          tr_f_lost = 0;
          tr_f_corrupted = 0;
        }
      in
      handle.h_tracked <- (medium, tr) :: handle.h_tracked;
      tr

let attach_impair medium impair =
  match medium with
  | Mlink link -> Link.set_impairment link (Some impair)
  | Msegment seg -> Segment.set_impairment seg (Some impair)

let maybe_detach_impair medium impair =
  if impair.Impair.loss_rate = 0.0 && impair.Impair.corrupt_rate = 0.0 then
    match medium with
    | Mlink link -> Link.set_impairment link None
    | Msegment seg -> Segment.set_impairment seg None

(* Loss, corruption and congestion accept either medium kind whatever the
   constructor says: scenario files name the medium and the registry
   disambiguates. *)
let resolve_medium topo name =
  match Topology.find_link topo name with
  | Some link -> Some (Mlink link)
  | None -> (
      match Topology.find_segment topo name with
      | Some seg -> Some (Msegment seg)
      | None -> None)

let bad fmt = Printf.ksprintf invalid_arg fmt

let medium_target handle = function
  | Some (Tlink name) | Some (Tsegment name) -> (
      match resolve_medium handle.h_topo name with
      | Some medium -> medium
      | None -> bad "Faults.arm: unknown link or segment %s" name)
  | Some (Tnode name) -> bad "Faults.arm: %s: fault needs a link or segment" name
  | None -> bad "Faults.arm: fault needs a target"

let link_target handle = function
  | Some (Tlink name) | Some (Tsegment name) -> (
      match Topology.find_link handle.h_topo name with
      | Some link -> link
      | None -> bad "Faults.arm: unknown link %s" name)
  | Some (Tnode _) | None -> bad "Faults.arm: link fault needs a link target"

let node_target handle = function
  | Some (Tnode name) -> (
      match Topology.find handle.h_topo name with
      | node -> node
      | exception Not_found -> bad "Faults.arm: unknown node %s" name)
  | _ -> bad "Faults.arm: crash needs a node target"

let reconverge handle =
  Topology.compute_routes handle.h_topo

let schedule_event handle engine event =
  let clamp t = if t < Engine.now engine then Engine.now engine else t in
  let inject kind_label =
    handle.h_injected <- handle.h_injected + 1;
    Obs.Registry.incr (m_injected kind_label)
  in
  match event.ft_kind with
  | Link_down ->
      let link = link_target handle event.ft_target in
      Engine.schedule engine ~at:(clamp event.ft_at) (fun () ->
          inject "link_down";
          Link.set_up link false;
          reconverge handle);
      Option.iter
        (fun until ->
          Engine.schedule engine ~at:(clamp until) (fun () ->
              inject "link_up";
              Link.set_up link true;
              reconverge handle))
        event.ft_until
  | Loss rate ->
      let medium = medium_target handle event.ft_target in
      Engine.schedule engine ~at:(clamp event.ft_at) (fun () ->
          inject "loss";
          let tr = tracked_for handle medium in
          tr.tr_impair.Impair.loss_rate <- rate;
          attach_impair medium tr.tr_impair);
      Option.iter
        (fun until ->
          Engine.schedule engine ~at:(clamp until) (fun () ->
              let tr = tracked_for handle medium in
              tr.tr_impair.Impair.loss_rate <- 0.0;
              maybe_detach_impair medium tr.tr_impair))
        event.ft_until
  | Corrupt rate ->
      let medium = medium_target handle event.ft_target in
      Engine.schedule engine ~at:(clamp event.ft_at) (fun () ->
          inject "corrupt";
          let tr = tracked_for handle medium in
          tr.tr_impair.Impair.corrupt_rate <- rate;
          attach_impair medium tr.tr_impair);
      Option.iter
        (fun until ->
          Engine.schedule engine ~at:(clamp until) (fun () ->
              let tr = tracked_for handle medium in
              tr.tr_impair.Impair.corrupt_rate <- 0.0;
              maybe_detach_impair medium tr.tr_impair))
        event.ft_until
  | Congest { bandwidth_factor; queue_factor } ->
      let medium = medium_target handle event.ft_target in
      let saved = ref None in
      Engine.schedule engine ~at:(clamp event.ft_at) (fun () ->
          inject "congest";
          match medium with
          | Mlink link ->
              saved := Some (Link.bandwidth_bps link, Link.queue_capacity link);
              Link.set_bandwidth_bps link
                (Link.bandwidth_bps link *. bandwidth_factor);
              Link.set_queue_capacity link
                (int_of_float (float_of_int (Link.queue_capacity link) *. queue_factor))
          | Msegment seg ->
              saved := Some (Segment.bandwidth_bps seg, Segment.queue_capacity seg);
              Segment.set_bandwidth_bps seg
                (Segment.bandwidth_bps seg *. bandwidth_factor);
              Segment.set_queue_capacity seg
                (int_of_float (float_of_int (Segment.queue_capacity seg) *. queue_factor)));
      Option.iter
        (fun until ->
          Engine.schedule engine ~at:(clamp until) (fun () ->
              inject "congest_end";
              match (!saved, medium) with
              | Some (bw, cap), Mlink link ->
                  Link.set_bandwidth_bps link bw;
                  Link.set_queue_capacity link cap
              | Some (bw, cap), Msegment seg ->
                  Segment.set_bandwidth_bps seg bw;
                  Segment.set_queue_capacity seg cap
              | None, _ -> ()))
        event.ft_until
  | Crash { wipe } ->
      let node = node_target handle event.ft_target in
      Engine.schedule engine ~at:(clamp event.ft_at) (fun () ->
          inject "crash";
          Node.set_up node false;
          if wipe then Node.reset_state node;
          reconverge handle);
      Option.iter
        (fun until ->
          Engine.schedule engine ~at:(clamp until) (fun () ->
              inject "restart";
              Node.set_up node true;
              reconverge handle;
              List.iter (fun f -> f node) handle.h_restart_hooks))
        event.ft_until
  | Reroute ->
      Engine.schedule engine ~at:(clamp event.ft_at) (fun () ->
          inject "reroute";
          reconverge handle)

let arm ?engine topo scenario =
  let handle =
    {
      h_topo = topo;
      h_rng = rng_create ~seed:scenario.seed;
      h_restart_hooks = [];
      h_injected = 0;
      h_tracked = [];
    }
  in
  if scenario.events <> [] then begin
    (* Fault timers default to the topology engine; a partitioned run
       passes the engine of the partition its targets are pinned into.
       The metrics flush hook always stays on the topology engine, whose
       hooks the parallel driver runs after the domains have joined. *)
    let sched_engine =
      match engine with Some e -> e | None -> Topology.engine topo
    in
    List.iter (schedule_event handle sched_engine) scenario.events;
    Engine.on_flush (Topology.engine topo) (fun () ->
        List.iter flush_tracked handle.h_tracked)
  end;
  handle

(* Which nodes a partitioned run must pin into one partition so this
   scenario stays deterministic: every draw from the shared scenario RNG
   then happens on one domain, in the sequential order restricted to it.
   Faults that reconverge routes globally cannot be partitioned at all. *)
let pin_targets topo scenario =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | ev :: rest -> (
        match ev.ft_kind with
        | Link_down ->
            Error "fault 'link down' reconverges routes globally"
        | Crash _ -> Error "fault 'crash' reconverges routes globally"
        | Reroute -> Error "fault 'reroute' reconverges routes globally"
        | Loss _ | Corrupt _ | Congest _ -> (
            match ev.ft_target with
            | Some (Tlink name) | Some (Tsegment name) -> (
                match resolve_medium topo name with
                | Some (Mlink link) ->
                    let endpoints =
                      List.concat_map
                        (fun (l, a, b) -> if l == link then [ a; b ] else [])
                        (Topology.link_endpoints topo)
                    in
                    go (List.rev_append endpoints acc) rest
                | Some (Msegment seg) ->
                    let stations =
                      List.concat_map
                        (fun (s, nodes) -> if s == seg then nodes else [])
                        (Topology.segment_stations topo)
                    in
                    go (List.rev_append stations acc) rest
                | None ->
                    Error
                      (Printf.sprintf "unknown link or segment %s" name))
            | Some (Tnode name) ->
                Error
                  (Printf.sprintf "%s: fault needs a link or segment" name)
            | None -> Error "fault needs a target"))
  in
  go [] scenario.events
