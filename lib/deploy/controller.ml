module Node = Netsim.Node
module Addr = Netsim.Addr
module Engine = Netsim.Engine
module Reliable = Netsim.Reliable

type outcome =
  | Acked of { epoch : int; install_latency : float; note : string }
  | Nakked of { epoch : int; reason : string }
  | Timed_out
  | Skipped
  | Aborted of { reason : string }

let outcome_to_string = function
  | Acked { epoch; note; _ } -> Printf.sprintf "ACK epoch %d (%s)" epoch note
  | Nakked { epoch; reason } -> Printf.sprintf "NAK epoch %d: %s" epoch reason
  | Timed_out -> "timed out"
  | Skipped -> "skipped"
  | Aborted { reason } -> Printf.sprintf "aborted: %s" reason

(* One capsule stream + one reply stream per target, reused across ops. *)
type conn = {
  stream : Reliable.Sender.t;
  reply_port : int;
  mutable retx_seen : int;  (* retransmissions already billed to metrics *)
}

type pending = {
  p_epoch : int;
  (* deploys match replies by epoch (a late ACK for a superseded epoch must
     not settle a newer operation); undeploy/rollback ACKs report the
     retired/restored epoch instead of the op's, so they match loosely *)
  p_strict : bool;
  p_on_done : outcome -> unit;
  mutable p_done : bool;
}

type t = {
  ctl_node : Node.t;
  secret : string;
  chunk_size : int;
  daemon_port : int;
  port_base : int;
  rto : float;
  max_rto : float;
  retry_budget : int option;
  conns : (Addr.t, conn) Hashtbl.t;
  (* Ports are allocated by a monotonic counter, not [Hashtbl.length
     t.conns]: a conn torn down after a stream abort must not cause its
     ports to be reissued to a different target. *)
  mutable next_conn_index : int;
  epochs : (Addr.t * string, int) Hashtbl.t;  (* highest shipped epoch *)
  acked_epochs : (Addr.t * string, int) Hashtbl.t;  (* highest ACKed *)
  pending : (Addr.t * string, pending) Hashtbl.t;
  m_capsules : Obs.Registry.counter;
  m_retx : Obs.Registry.counter;
  m_acks : Obs.Registry.counter;
  m_naks : Obs.Registry.counter;
  m_timeouts : Obs.Registry.counter;
  m_aborts : Obs.Registry.counter;
}

let node t = t.ctl_node

let bill_retransmissions t conn =
  let total = Reliable.Sender.retransmissions conn.stream in
  if total > conn.retx_seen then begin
    Obs.Registry.add t.m_retx (total - conn.retx_seen);
    conn.retx_seen <- total
  end

let settle ?reply_epoch t ~target ~name outcome =
  match Hashtbl.find_opt t.pending (target, name) with
  | Some pending
    when (not pending.p_done)
         && not
              (pending.p_strict
              && match reply_epoch with
                 | Some epoch -> epoch <> pending.p_epoch
                 | None -> false) ->
      pending.p_done <- true;
      Hashtbl.remove t.pending (target, name);
      (match Hashtbl.find_opt t.conns target with
      | Some conn -> bill_retransmissions t conn
      | None -> ());
      (match outcome with
      | Acked { epoch; _ } ->
          Obs.Registry.incr t.m_acks;
          Hashtbl.replace t.acked_epochs (target, name) epoch
      | Nakked _ -> Obs.Registry.incr t.m_naks
      | Timed_out -> Obs.Registry.incr t.m_timeouts
      | Skipped -> ()
      | Aborted _ -> Obs.Registry.incr t.m_aborts);
      pending.p_on_done outcome
  | Some _ | None -> ()

let on_reply t ~target payload =
  match Capsule.decode payload with
  | Some (Capsule.Ack { program; epoch; signature; install_latency_us; note })
    ->
      let expected =
        Capsule.sign ~secret:t.secret ~program ~epoch ~node:target
      in
      if signature <> expected then
        settle ~reply_epoch:epoch t ~target ~name:program
          (Nakked { epoch; reason = "bad ACK signature" })
      else
        settle ~reply_epoch:epoch t ~target ~name:program
          (Acked
             {
               epoch;
               install_latency = float_of_int install_latency_us /. 1e6;
               note;
             })
  | Some (Capsule.Nak { program; epoch; reason }) ->
      settle ~reply_epoch:epoch t ~target ~name:program
        (Nakked { epoch; reason })
  | Some _ | None -> ()

(* A deadline passed ([Timed_out]) or the capsule stream exhausted its
   retry budget ([Aborted]): the stream is closed, so no capsule of a
   settled operation installs late, and forgotten before any [on_done]
   runs, so the next operation dials a fresh stream on new ports. Every
   operation pending on [target] settles with [outcome]. *)
let give_up t ~target outcome =
  (match Hashtbl.find_opt t.conns target with
  | Some conn ->
      bill_retransmissions t conn;
      Reliable.Sender.close conn.stream;
      Hashtbl.remove t.conns target
  | None -> ());
  let names =
    Hashtbl.fold
      (fun (tgt, name) _ acc ->
        if Addr.equal tgt target then name :: acc else acc)
      t.pending []
  in
  List.iter
    (fun name -> settle t ~target ~name outcome)
    (List.sort String.compare names)

let conn_of t target =
  match Hashtbl.find_opt t.conns target with
  | Some conn -> conn
  | None ->
      let index = t.next_conn_index in
      t.next_conn_index <- index + 1;
      let src_port = t.port_base + (2 * index) in
      let reply_port = t.port_base + (2 * index) + 1 in
      let stream =
        Reliable.Sender.connect ~chan_tag:Capsule.chan_tag ~rto:t.rto
          ~max_rto:t.max_rto ?retry_budget:t.retry_budget
          ~on_abort:(fun reason -> give_up t ~target (Aborted { reason }))
          t.ctl_node ~dst:target ~dst_port:t.daemon_port ~src_port ()
      in
      let _rx =
        Reliable.Receiver.listen ~chan_tag:Capsule.chan_tag t.ctl_node
          ~port:reply_port
          ~on_message:(fun payload -> on_reply t ~target payload)
          ()
      in
      let conn = { stream; reply_port; retx_seen = 0 } in
      Hashtbl.replace t.conns target conn;
      conn

let send_capsule t conn msg =
  Obs.Registry.incr t.m_capsules;
  Reliable.Sender.send conn.stream (Capsule.encode msg)

let next_epoch t ~target ~name =
  (match Hashtbl.find_opt t.epochs (target, name) with
   | Some epoch -> epoch
   | None -> 0)
  + 1

let arm t ~target ~name ~epoch ~strict ~timeout on_done =
  (* One in-flight operation per (target, program): a newer op supersedes
     an unsettled older one. *)
  (match Hashtbl.find_opt t.pending (target, name) with
  | Some old when not old.p_done ->
      settle t ~target ~name
        (Nakked
           { epoch = old.p_epoch; reason = "superseded by a newer operation" })
  | Some _ | None -> ());
  let pending =
    { p_epoch = epoch; p_strict = strict; p_on_done = on_done; p_done = false }
  in
  Hashtbl.replace t.pending (target, name) pending;
  Engine.schedule_after (Node.engine t.ctl_node) ~delay:timeout (fun () ->
      match Hashtbl.find_opt t.pending (target, name) with
      | Some current when current == pending && not pending.p_done ->
          give_up t ~target Timed_out
      | Some _ | None -> ())

let deploy ?(backend = "jit") ?(authenticated = false) ?epoch ?(timeout = 60.0)
    t ~target ~name ~source ~on_done () =
  let epoch =
    match epoch with Some e -> e | None -> next_epoch t ~target ~name
  in
  Hashtbl.replace t.epochs (target, name)
    (max epoch
       (Option.value ~default:0 (Hashtbl.find_opt t.epochs (target, name))));
  let conn = conn_of t target in
  let chunks = Capsule.chunk ~chunk_size:t.chunk_size source in
  arm t ~target ~name ~epoch ~strict:true ~timeout on_done;
  send_capsule t conn
    (Capsule.Manifest
       {
         program = name;
         epoch;
         backend;
         total_chunks = List.length chunks;
         total_bytes = String.length source;
         checksum = Capsule.checksum source;
         authenticated;
         reply_addr = Node.addr t.ctl_node;
         reply_port = conn.reply_port;
       });
  List.iteri
    (fun index data ->
      send_capsule t conn
        (Capsule.Chunk { program = name; epoch; index; data }))
    chunks

let control_op t ~target ~name ~timeout ~make ~on_done =
  let epoch = next_epoch t ~target ~name in
  Hashtbl.replace t.epochs (target, name) epoch;
  let conn = conn_of t target in
  arm t ~target ~name ~epoch ~strict:false ~timeout on_done;
  send_capsule t conn
    (make ~epoch ~reply_addr:(Node.addr t.ctl_node)
       ~reply_port:conn.reply_port)

let undeploy ?(timeout = 60.0) t ~target ~name ~on_done () =
  control_op t ~target ~name ~timeout
    ~on_done:(fun outcome ->
      (* The ACK names the retired epoch; the target now runs nothing. *)
      (match outcome with
      | Acked _ -> Hashtbl.remove t.acked_epochs (target, name)
      | _ -> ());
      on_done outcome)
    ~make:(fun ~epoch ~reply_addr ~reply_port ->
      Capsule.Undeploy { program = name; epoch; reply_addr; reply_port })

let rollback ?(timeout = 60.0) t ~target ~name ~on_done () =
  control_op t ~target ~name ~timeout ~on_done
    ~make:(fun ~epoch ~reply_addr ~reply_port ->
      Capsule.Rollback { program = name; epoch; reply_addr; reply_port })

let epoch_of t ~target ~name = Hashtbl.find_opt t.acked_epochs (target, name)

type nak_policy = Abort | Continue

(* The staging loop under [rollout] and [restore]: one operation per
   [(target, arg)] item, [start target arg k] launching it with [k] as
   its completion. Items launch in list order with at most [concurrency] in
   flight; once [stop] holds for a settled outcome, every untried item
   settles [Skipped]. [on_done] fires exactly once — from the last
   outcome to settle, when every item has launched — with one outcome
   per target in input order. *)
let stage ~concurrency ~stop ?on_target items ~start ~on_done =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n Skipped in
  let next = ref 0 and unsettled = ref n and stopped = ref false in
  let rec launch () =
    if !next < n then begin
      let i = !next in
      incr next;
      let target, arg = items.(i) in
      if !stopped then settled i Skipped else start target arg (settled i)
    end
  and settled i outcome =
    results.(i) <- outcome;
    decr unsettled;
    if stop outcome then stopped := true;
    Option.iter (fun f -> f (fst items.(i)) outcome) on_target;
    if !unsettled = 0 then
      on_done
        (Array.to_list (Array.mapi (fun i o -> (fst items.(i), o)) results))
    else launch ()
  in
  if n = 0 then on_done []
  else
    for _ = 1 to min concurrency n do
      launch ()
    done

let restore ?(concurrency = 2) ?timeout t ~name ~prior ~on_done () =
  if concurrency <= 0 then invalid_arg "Controller.restore: concurrency";
  stage ~concurrency ~stop:(fun _ -> false) prior
    ~start:(fun target epoch k ->
      match epoch with
      | Some _ -> rollback ?timeout t ~target ~name ~on_done:k ()
      | None -> undeploy ?timeout t ~target ~name ~on_done:k ())
    ~on_done

let rollout ?backend ?authenticated ?epoch ?(concurrency = 2)
    ?(on_nak = Continue) ?timeout ?on_target t ~targets ~name ~source ~on_done
    () =
  if concurrency <= 0 then invalid_arg "Controller.rollout: concurrency";
  (* Each target's acked epoch before the rollout: what an abort
     restores the targets that already ACKed to. *)
  let prior =
    List.map (fun target -> (target, epoch_of t ~target ~name)) targets
  in
  (* Under [Abort] any target that fails stops the rollout: a NAK, a
     timeout or an aborted stream. *)
  let stop = function
    | Acked _ | Skipped -> false
    | Nakked _ | Timed_out | Aborted _ -> on_nak = Abort
  in
  stage ~concurrency ~stop ?on_target prior
    ~start:(fun target _ k ->
      deploy ?backend ?authenticated ?epoch ?timeout t ~target ~name ~source
        ~on_done:k ())
    ~on_done:(fun outcomes ->
      (* An aborted rollout must not strand its acked targets on the new
         epoch while the rest of the fleet never left the old one: they
         are restored before [on_done] fires, which still reports each
         target's original fate. *)
      let staged =
        List.filter_map
          (fun ((target, epoch), (_, outcome)) ->
            match outcome with Acked _ -> Some (target, epoch) | _ -> None)
          (List.combine prior outcomes)
      in
      if staged <> [] && List.exists (fun (_, o) -> stop o) outcomes then
        restore ~concurrency ?timeout t ~name ~prior:staged
          ~on_done:(fun _ -> on_done outcomes)
          ()
      else on_done outcomes)

let create ?(secret = "extnet") ?(chunk_size = 512)
    ?(daemon_port = Capsule.well_known_port) ?(port_base = 52000) ?(rto = 0.2)
    ?(max_rto = 5.0) ?retry_budget ctl_node () =
  if chunk_size <= 0 then invalid_arg "Controller.create: chunk_size";
  let labels = [ ("controller", Node.name ctl_node) ] in
  {
    ctl_node;
    secret;
    chunk_size;
    daemon_port;
    port_base;
    rto;
    max_rto;
    retry_budget;
    conns = Hashtbl.create 8;
    next_conn_index = 0;
    epochs = Hashtbl.create 16;
    acked_epochs = Hashtbl.create 16;
    pending = Hashtbl.create 8;
    m_capsules =
      Obs.Registry.counter ~labels ~help:"code capsules shipped"
        "deploy.controller.capsules_sent";
    m_retx =
      Obs.Registry.counter ~labels
        ~help:"capsule-stream retransmissions (sampled at op completion)"
        "deploy.controller.retransmissions";
    m_acks =
      Obs.Registry.counter ~labels ~help:"operations acknowledged"
        "deploy.controller.acks";
    m_naks =
      Obs.Registry.counter ~labels ~help:"operations rejected by a daemon"
        "deploy.controller.naks";
    m_timeouts =
      Obs.Registry.counter ~labels ~help:"operations that hit their deadline"
        "deploy.controller.timeouts";
    m_aborts =
      Obs.Registry.counter ~labels
        ~help:"operations abandoned after the capsule stream's retry budget"
        "deploy.controller.aborts";
  }
