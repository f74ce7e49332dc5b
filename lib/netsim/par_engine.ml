(* Deterministic parallel simulation: one calendar queue per OCaml 5
   domain, conservative window synchronization.

   The topology is cut into partitions ({!Partition}); partition 0 keeps
   the topology's original engine (and with it every component's
   registered flush hook), partitions 1..k-1 get fresh engines created
   with [~register_gauges:false].  Nodes, segments and link endpoints are
   re-homed onto their partition's engine; each direction of a cut link
   sends into a mutex-protected {e conduit} instead of its delivery ring.

   Rounds follow the classic conservative (Chandy–Misra–Bryant) recipe,
   windowed: every domain drains its inbound conduits into the delivery
   rings, publishes the earliest time left in its queue, and enters a
   sense-reversing barrier.  The last domain to arrive computes the
   global horizon [M = min next_time] and grants the window
   [W = min (M + lookahead, stop)], where the lookahead is the minimum
   propagation latency over cut links: a packet transmitted at time
   [t >= M] arrives at [t + latency >= W], so processing events below [W]
   can never violate causality.  A domain whose queue is empty still
   participates — its [infinity] publication is the null message that
   lets the others compute a safe horizon.  A second barrier closes every
   window: no domain starts the next round's drain until every producer
   has finished the window, so each drain observes the complete set of
   cross-partition transmissions from all previous windows.

   Determinism: conduits preserve per-direction send order (each link
   direction serializes its transmissions, so buffered times are already
   monotone), drains happen in a fixed per-partition order, and every
   engine stamps (time, seq) with its own scheduler's counter — the
   event order inside a partition is exactly the sequential order
   restricted to that partition.  The one divergence is an exact-time tie
   between a cross-partition arrival and an unrelated local event, which
   may pop in either order (documented in SIMULATOR.md).

   One partition is the sequential engine: the same rounds run on the
   calling domain alone, with nothing to exchange and an infinite
   lookahead, so a run without pacers is a single window.

   Error safety: the first error, from an event or a pacer, ends the run
   at the next barrier.  No later window is granted and no later pacer
   fires; the other domains leave the loop, metrics are flushed, and the
   first error (by partition index) is re-raised on the calling domain
   after the join. *)

type conduit = {
  c_link : Link.t;
  c_from : Link.endpoint; (* transmitting endpoint of the direction *)
  c_dst : int; (* partition that drains this conduit *)
  c_mutex : Mutex.t;
  mutable c_buf : (float * Packet.t) list; (* newest first *)
  mutable c_total : int; (* packets ever pushed *)
}

type mode = Drain | Until of float

(* A barrier-paced callback: fires at [pc_next, pc_next + period, ...]
   while [pc_next <= pc_until], from the window-grant critical section,
   with every partition quiescent and every engine clock forced to the
   fire time. The adaptation plane re-homes its monitors here so
   sampling and decisions happen at window barriers, identically for
   every domain count. *)
type pacer = {
  pc_period : float;
  pc_until : float;
  pc_fire : now:float -> unit;
  mutable pc_next : float;
}

type t = {
  p_parts : int;
  p_engines : Engine.t array; (* index = partition id; 0 = topology's *)
  p_topo : Topology.t option;
  p_owner : int array; (* node index -> partition; [||] for raw *)
  p_lookahead : float;
  p_conduits : conduit array; (* creation order *)
  p_inbound : conduit array array; (* per destination partition *)
  (* Round synchronization: a sense-reversing barrier whose last arriver
     computes the next window under the mutex. *)
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  mutable p_arrived : int;
  mutable p_phase : bool;
  p_next : float array; (* per-partition published next event time *)
  mutable p_window : float;
  mutable p_inclusive : bool;
  mutable p_running : bool;
  mutable p_limit : int;
  mutable p_pacers : pacer list; (* registration order *)
  p_errors : exn option array;
  p_cpu : float ref; (* process cpu seconds inside drives *)
  p_stalls : int array; (* rounds where a partition fired no event *)
  mutable s_rounds : int;
  mutable s_nulls : int;
  (* Volatile execution-plane counters, published at finish. *)
  m_rounds : Obs.Registry.counter;
  m_nulls : Obs.Registry.counter;
  m_stalls : Obs.Registry.counter;
  m_cross : Obs.Registry.counter;
  mutable f_rounds : int; (* high-water marks already published *)
  mutable f_nulls : int;
  mutable f_stalls : int;
  mutable f_cross : int;
}

let default_limit = 100_000_000

(* The sync counters describe how the run was executed and vary with the
   domain count, so, like wall-clock timings, they are volatile and never
   appear in deterministic exports. *)
let par_counters () =
  let c help name = Obs.Registry.counter ~volatile:true ~help name in
  ( c "synchronization rounds (window barriers)" "netsim.par.rounds",
    c "null messages (empty-queue time grants)" "netsim.par.null_messages",
    c "windows in which a partition fired no event" "netsim.par.horizon_stalls",
    c "packets that crossed a partition boundary" "netsim.par.cross_packets" )

let make ~parts ~engines ~topo ~owner ~lookahead ~conduits =
  let inbound =
    Array.init parts (fun p ->
        Array.of_list
          (List.filter (fun c -> c.c_dst = p) (Array.to_list conduits)))
  in
  let m_rounds, m_nulls, m_stalls, m_cross = par_counters () in
  let cpu = ref 0.0 in
  Obs.Registry.set_fn
    (Obs.Registry.gauge ~volatile:true
       ~help:"process cpu seconds spent inside run/run_until"
       "netsim.engine.wall_cpu_s")
    (fun () -> !cpu);
  {
    p_parts = parts;
    p_engines = engines;
    p_topo = topo;
    p_owner = owner;
    p_lookahead = lookahead;
    p_conduits = conduits;
    p_inbound = inbound;
    p_mutex = Mutex.create ();
    p_cond = Condition.create ();
    p_arrived = 0;
    p_phase = false;
    p_next = Array.make parts Float.infinity;
    p_window = 0.0;
    p_inclusive = false;
    p_running = false;
    p_limit = default_limit;
    p_pacers = [];
    p_errors = Array.make parts None;
    p_cpu = cpu;
    p_stalls = Array.make parts 0;
    s_rounds = 0;
    s_nulls = 0;
    m_rounds;
    m_nulls;
    m_stalls;
    m_cross;
    f_rounds = 0;
    f_nulls = 0;
    f_stalls = 0;
    f_cross = 0;
  }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let conduit_push c ~at packet =
  Mutex.lock c.c_mutex;
  c.c_buf <- (at, packet) :: c.c_buf;
  c.c_total <- c.c_total + 1;
  Mutex.unlock c.c_mutex

(* Re-register the [netsim.engine.*] callback gauges as reductions over
   every partition.  [get-or-create] returns the cells partition 0's
   engine registered; [set_fn] replaces its single-engine callbacks. *)
let register_reductions engines conduits =
  let gauge ?volatile ~help name = Obs.Registry.gauge ?volatile ~help name in
  Obs.Registry.set_fn
    (gauge ~help:"current simulated time (s)" "netsim.engine.sim_time_s")
    (fun () ->
      Array.fold_left (fun m e -> Float.max m (Engine.now e)) 0.0 engines);
  Obs.Registry.set_fn
    (gauge ~help:"events still queued" "netsim.engine.pending")
    (fun () ->
      let queued =
        Array.fold_left (fun acc e -> acc + Engine.pending e) 0 engines
      in
      let buffered =
        Array.fold_left (fun acc c -> acc + List.length c.c_buf) 0 conduits
      in
      float_of_int (queued + buffered));
  Obs.Registry.set_fn
    (gauge ~volatile:true ~help:"peak event-queue depth"
       "netsim.engine.heap_depth_max")
    (fun () ->
      float_of_int
        (Array.fold_left (fun acc e -> acc + Engine.max_heap_depth e) 0 engines))

let create ~domains =
  if domains < 1 then invalid_arg "Par_engine.create: domains must be >= 1";
  let engines =
    Array.init domains (fun _ -> Engine.create ~register_gauges:false ())
  in
  make ~parts:domains ~engines ~topo:None ~owner:[||]
    ~lookahead:Float.infinity ~conduits:[||]

let of_topology ?(pin = []) topo ~domains =
  if domains < 1 then Error "par: domains must be >= 1"
  else if domains = 1 then
    (* Single-domain wrapper: nothing is re-homed, no reductions are
       registered — runs are byte-identical to the plain engine. *)
    Ok
      (make ~parts:1
         ~engines:[| Topology.engine topo |]
         ~topo:(Some topo)
         ~owner:(Array.make (Topology.node_count topo) 0)
         ~lookahead:Float.infinity ~conduits:[||])
  else if Engine.pending (Topology.engine topo) > 0 then
    Error
      "par: the topology engine already has pending events; shard before \
       scheduling or injecting work"
  else
    match Partition.plan ~pin topo ~parts:domains with
    | Error _ as e -> e
    | Ok plan ->
        if plan.Partition.cut <> [] && plan.Partition.lookahead <= 0.0 then
          Error "par: a cut link has zero latency, leaving no lookahead"
        else begin
          let owner = plan.Partition.owner in
          let part_of node = owner.(Topology.node_index topo node) in
          let engines =
            Array.init domains (fun i ->
                if i = 0 then Topology.engine topo
                else Engine.create ~register_gauges:false ())
          in
          List.iter
            (fun node -> Node.set_engine node engines.(part_of node))
            (Topology.nodes topo);
          List.iter
            (fun (seg, stations) ->
              match stations with
              | [] -> () (* stationless segment: nothing references it *)
              | first :: _ -> Segment.set_engine seg engines.(part_of first))
            (Topology.segment_stations topo);
          List.iter
            (fun (link, a, b) ->
              Link.set_engines link ~a:engines.(part_of a)
                ~b:engines.(part_of b))
            (Topology.link_endpoints topo);
          let conduits =
            List.concat_map
              (fun (link, oa, ob) ->
                let mk from dst =
                  {
                    c_link = link;
                    c_from = from;
                    c_dst = dst;
                    c_mutex = Mutex.create ();
                    c_buf = [];
                    c_total = 0;
                  }
                in
                (* Direction transmitting from A delivers at B. *)
                [ mk Link.A ob; mk Link.B oa ])
              plan.Partition.cut
            |> Array.of_list
          in
          Array.iter
            (fun c ->
              Link.set_conduit c.c_link ~from:c.c_from
                (Some (conduit_push c)))
            conduits;
          register_reductions engines conduits;
          Ok
            (make ~parts:domains ~engines ~topo:(Some topo) ~owner
               ~lookahead:plan.Partition.lookahead ~conduits)
        end

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let parts t = t.p_parts
let engines t = t.p_engines
let lookahead t = t.p_lookahead

let now t =
  Array.fold_left (fun m e -> Float.max m (Engine.now e)) 0.0 t.p_engines

let engine_of t node =
  match t.p_topo with
  | None -> invalid_arg "Par_engine.engine_of: no topology (raw engines)"
  | Some topo -> t.p_engines.(t.p_owner.(Topology.node_index topo node))

let add_pacer t ~period ~until fire =
  if not (Float.is_finite period) || period <= 0.0 then
    invalid_arg "Par_engine.add_pacer: period must be finite and positive";
  if not (Float.is_finite until) then
    invalid_arg "Par_engine.add_pacer: until must be finite";
  let first = now t +. period in
  t.p_pacers <-
    t.p_pacers
    @ [ { pc_period = period; pc_until = until; pc_fire = fire; pc_next = first } ]

(* ------------------------------------------------------------------ *)
(* The round loop                                                      *)

let drain_conduit c =
  Mutex.lock c.c_mutex;
  let buf = c.c_buf in
  c.c_buf <- [];
  Mutex.unlock c.c_mutex;
  match buf with
  | [] -> ()
  | buf ->
      List.iter
        (fun (at, packet) ->
          Link.conduit_deliver c.c_link ~from:c.c_from ~at packet)
        (List.rev buf)

let next_due t =
  List.fold_left
    (fun acc pc ->
      if pc.pc_next <= pc.pc_until then Float.min acc pc.pc_next else acc)
    Float.infinity t.p_pacers

let errored t = Array.exists Option.is_some t.p_errors

(* Runs with every partition quiescent, under [p_mutex] by the last
   barrier arriver while the other workers are parked on the condvar.
   While the global minimum next event time has passed a pacer's due time
   [bt <= horizon], every engine clock is forced to [bt] in
   partition-index order (publishing each partition's batched metrics,
   exactly like the sequential [run_until] epilogue), the due pacers fire
   in registration order, and any cross traffic they caused is drained
   into the delivery rings so the next grant accounts for it. A raising
   pacer is recorded like a worker error, and no pacer fires after it.
   Returns the post-fire global minimum next event time. *)
let fire_due t ~horizon =
  let live_min () =
    Array.fold_left
      (fun m e -> Float.min m (Engine.next_time e))
      Float.infinity t.p_engines
  in
  let rec go m =
    let bt = next_due t in
    if bt < m && bt <= horizon && not (errored t) then begin
      Array.iter
        (fun e -> Engine.run_until ~limit:t.p_limit e ~stop:bt)
        t.p_engines;
      List.iter
        (fun pc ->
          if pc.pc_next = bt && pc.pc_next <= pc.pc_until && not (errored t)
          then begin
            pc.pc_next <- pc.pc_next +. pc.pc_period;
            try pc.pc_fire ~now:bt with e -> t.p_errors.(0) <- Some e
          end)
        t.p_pacers;
      Array.iter drain_conduit t.p_conduits;
      go (live_min ())
    end
    else m
  in
  go (live_min ())

(* Runs under [p_mutex], by the last domain to arrive at the barrier. *)
let compute_window t mode =
  t.s_rounds <- t.s_rounds + 1;
  let m = ref Float.infinity in
  Array.iter (fun v -> if v < !m then m := v) t.p_next;
  let horizon =
    match mode with Drain -> Float.infinity | Until stop -> stop
  in
  if t.p_pacers <> [] then m := fire_due t ~horizon;
  (* After [fire_due], any pacer still due at [<= horizon] implies an
     event at [<= its due time] is pending, so the plain horizon test
     also covers pacer exhaustion. *)
  let finished =
    errored t
    ||
    match mode with Drain -> !m = Float.infinity | Until stop -> !m > stop
  in
  if finished then t.p_running <- false
  else begin
    Array.iter
      (fun v -> if v = Float.infinity then t.s_nulls <- t.s_nulls + 1)
      t.p_next;
    let w = !m +. t.p_lookahead in
    let due = next_due t in
    match mode with
    | Drain ->
        if due < w then begin
          (* A pacer is due before the grant: clamp the window to the due
             time, inclusively, so the next round's [fire_due] sees every
             event at [<= due] processed before the pacer fires. Cross
             arrivals caused at [due] land at [>= due + lookahead] and are
             drained before any window covers them, so the inclusive
             boundary is safe (same argument as the final Until window). *)
          t.p_window <- due;
          t.p_inclusive <- true
        end
        else begin
          t.p_window <- w;
          t.p_inclusive <- false
        end
    | Until stop ->
        let bound = Float.min stop due in
        if w >= bound then begin
          (* Final or pacer-clamped window: events exactly at [bound] are
             in scope, and any cross arrival they cause lands at
             [>= bound + lookahead], so the inclusive boundary is safe. *)
          t.p_window <- bound;
          t.p_inclusive <- true
        end
        else begin
          t.p_window <- w;
          t.p_inclusive <- false
        end
  end

let barrier t compute =
  Mutex.lock t.p_mutex;
  let phase = t.p_phase in
  t.p_arrived <- t.p_arrived + 1;
  if t.p_arrived = t.p_parts then begin
    compute ();
    t.p_arrived <- 0;
    t.p_phase <- not phase;
    Condition.broadcast t.p_cond
  end
  else
    while t.p_phase = phase do
      Condition.wait t.p_cond t.p_mutex
    done;
  Mutex.unlock t.p_mutex

(* One partition's round loop. A partition that raised is never driven
   again: it only keeps arriving at the barriers until the grant that
   follows its error ends the run. *)
let worker t mode p =
  let engine = t.p_engines.(p) in
  let inbound = t.p_inbound.(p) in
  let guarded f =
    if t.p_errors.(p) = None then
      try f () with e -> t.p_errors.(p) <- Some e
  in
  while t.p_running do
    guarded (fun () ->
        Array.iter drain_conduit inbound;
        t.p_next.(p) <- Engine.next_time engine);
    barrier t (fun () -> compute_window t mode);
    if t.p_running then begin
      guarded (fun () ->
          let fired =
            Engine.run_window ~limit:t.p_limit ~inclusive:t.p_inclusive
              engine ~stop:t.p_window
          in
          if fired = 0 then t.p_stalls.(p) <- t.p_stalls.(p) + 1);
      (* End-of-window barrier: the next round's drain must only run once
         EVERY partition has finished this window — otherwise a fast
         partition drains early, misses a cross packet a slower producer
         pushes moments later, and only sees it a round later, when its
         own clock may have passed the arrival time. The barrier also
         publishes the producers' pushes (mutex release/acquire) before
         any consumer drains. *)
      barrier t (fun () -> ())
    end
  done

(* Publish batched execution-plane counters (monotone across runs). *)
let publish_par_counters t =
  let stalls = Array.fold_left ( + ) 0 t.p_stalls in
  let cross =
    Array.fold_left (fun acc c -> acc + c.c_total) 0 t.p_conduits
  in
  Obs.Registry.add t.m_rounds (t.s_rounds - t.f_rounds);
  t.f_rounds <- t.s_rounds;
  Obs.Registry.add t.m_nulls (t.s_nulls - t.f_nulls);
  t.f_nulls <- t.s_nulls;
  Obs.Registry.add t.m_stalls (stalls - t.f_stalls);
  t.f_stalls <- stalls;
  Obs.Registry.add t.m_cross (cross - t.f_cross);
  t.f_cross <- cross

let finish t mode =
  (match mode with
  | Until stop when not (errored t) ->
      (* Queues hold only events past [stop]; this forces every clock to
         [stop] and runs each engine's flush (partition 0 carries every
         component's flush hook) — exactly what the sequential
         [run_until] epilogue does. *)
      Array.iter (fun e -> Engine.run_until ~limit:t.p_limit e ~stop)
        t.p_engines
  | Drain | Until _ -> Array.iter Engine.flush t.p_engines);
  publish_par_counters t

(* Every run takes the round loop: partition 0 on the calling domain,
   [parts - 1] spawned domains. One process-cpu reading brackets the
   whole drive. *)
let drive ?(limit = default_limit) t mode =
  let started = Sys.time () in
  t.p_limit <- limit;
  t.p_running <- true;
  t.p_arrived <- 0;
  t.p_phase <- false;
  Array.fill t.p_errors 0 t.p_parts None;
  let spawned =
    Array.init (t.p_parts - 1) (fun i ->
        Domain.spawn (fun () -> worker t mode (i + 1)))
  in
  worker t mode 0;
  Array.iter Domain.join spawned;
  (* An errored partition stopped draining its inbound conduits; empty
     them into the rings so pending counts stay meaningful. *)
  Array.iter drain_conduit t.p_conduits;
  finish t mode;
  t.p_cpu := !(t.p_cpu) +. (Sys.time () -. started);
  Array.iter (function Some e -> raise e | None -> ()) t.p_errors

let run ?limit t = drive ?limit t Drain
let run_until ?limit t ~stop = drive ?limit t (Until stop)

(* Execution-plane introspection (volatile; for tests and bench). *)
let rounds t = t.s_rounds
let cross_packets t =
  Array.fold_left (fun acc c -> acc + c.c_total) 0 t.p_conduits
