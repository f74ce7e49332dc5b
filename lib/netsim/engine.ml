(* The event core.  Events are a typed variant, not bare closures: links
   and segments enqueue packets into preallocated per-direction FIFO rings
   (one outstanding scheduler entry per ring, re-armed from the ring head),
   so the steady-state delivery path allocates nothing — no closure per
   packet, no boxed heap entry, no boxed clock store (the clock lives in an
   all-float cell that Sched.pop writes directly).

   Ordering is bit-identical to the old per-packet binary heap: every ring
   push reserves a global sequence number at push time (Sched.fresh_seq),
   and the ring's scheduler entry always carries the head packet's stamped
   (time, seq) — the pop order is exactly what per-packet scheduling would
   have produced. *)

type event =
  | Timer of (unit -> unit)
  | Deliver of delivery
  | Broadcast of broadcast

(* A point-to-point delivery pipeline (one per link direction): a FIFO ring
   of in-flight packets with parallel unboxed arrival times and stamped
   seqs.  Ring capacity is a power of two and doubles when full. *)
and delivery = {
  mutable d_receiver : Packet.t -> unit;
  mutable d_pkts : Packet.t array;
  mutable d_times : float array;
  mutable d_seqs : int array;
  mutable d_head : int;
  mutable d_len : int;
  mutable d_stale : int; (* armed scheduler entries whose packets were cleared *)
  mutable d_event : event; (* preallocated [Deliver self] *)
}

(* A broadcast pipeline (one per shared segment): like [delivery] but each
   frame also carries its link-level destination and sending station. *)
and broadcast = {
  mutable b_handler : l2_dst:Addr.t option -> from:int -> Packet.t -> unit;
  mutable b_pkts : Packet.t array;
  mutable b_dsts : Addr.t option array;
  mutable b_froms : int array;
  mutable b_times : float array;
  mutable b_seqs : int array;
  mutable b_head : int;
  mutable b_len : int;
  mutable b_event : event;
}

type t = {
  queue : event Sched.t;
  clock : Sched.fcell; (* all-float cell: stores never box *)
  scratch : Sched.fcell; (* peek target for run_until *)
  mutable queued : int; (* logical pending: timers + every ring resident *)
  mutable processed : int;
  mutable flushed : int; (* events already pushed to m_events *)
  mutable depth_max : int;
  mutable flush_hooks : (unit -> unit) list; (* registration order *)
  m_events : Obs.Registry.counter;
}

let nop_event = Timer (fun () -> ())

let dummy_packet =
  Packet.make ~src:Addr.broadcast ~dst:Addr.broadcast Packet.Raw Payload.empty

let create ?(register_gauges = true) () =
  let engine =
    {
      queue = Sched.create ~dummy:nop_event ();
      clock = { Sched.v = 0.0 };
      scratch = { Sched.v = 0.0 };
      queued = 0;
      processed = 0;
      flushed = 0;
      depth_max = 0;
      flush_hooks = [];
      m_events =
        Obs.Registry.counter ~help:"events executed" "netsim.engine.events";
    }
  in
  (* Callback gauges cost nothing per event; they sample at snapshot time.
     Partition sub-engines pass [~register_gauges:false]: the parallel
     driver owns these names and registers reductions over every
     partition instead (Par_engine). *)
  if register_gauges then begin
    Obs.Registry.set_fn
      (Obs.Registry.gauge ~help:"current simulated time (s)"
         "netsim.engine.sim_time_s")
      (fun () -> engine.clock.Sched.v);
    Obs.Registry.set_fn
      (Obs.Registry.gauge ~help:"events still queued" "netsim.engine.pending")
      (fun () -> float_of_int engine.queued);
    (* Volatile: the peak queue depth describes how the run was executed
       (one global queue vs per-partition queues), not what the simulated
       network did — a sharded run cannot reproduce the sequential
       engine's instantaneous global peak, so the gauge stays out of
       deterministic exports like the wall-clock timings do. *)
    Obs.Registry.set_fn
      (Obs.Registry.gauge ~volatile:true ~help:"peak event-queue depth"
         "netsim.engine.heap_depth_max")
      (fun () -> float_of_int engine.depth_max)
  end;
  engine

let[@inline] now engine = engine.clock.Sched.v

let[@inline] note_queued engine =
  engine.queued <- engine.queued + 1;
  if engine.queued > engine.depth_max then engine.depth_max <- engine.queued

(* Every time check is written [not (at >= now)], which also rejects NaN:
   a NaN time would compare false with everything and block the queue. *)
let schedule engine ~at thunk =
  if not (at >= engine.clock.Sched.v) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now (%g)" at
         engine.clock.Sched.v);
  Sched.add engine.queue ~time:at (Timer thunk);
  note_queued engine

let schedule_after engine ~delay thunk =
  if not (delay >= 0.0) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_after: delay %g is not >= 0" delay);
  schedule engine ~at:(engine.clock.Sched.v +. delay) thunk

(* ------------------------------------------------------------------ *)
(* Delivery rings                                                      *)
(* ------------------------------------------------------------------ *)

let delivery () =
  let cap = 8 in
  let d =
    {
      d_receiver = ignore;
      d_pkts = Array.make cap dummy_packet;
      d_times = Array.make cap 0.0;
      d_seqs = Array.make cap 0;
      d_head = 0;
      d_len = 0;
      d_stale = 0;
      d_event = nop_event;
    }
  in
  d.d_event <- Deliver d;
  d

let set_delivery_receiver d f = d.d_receiver <- f
let delivery_backlog d = d.d_len

let[@inline never] grow_delivery d =
  let cap = Array.length d.d_pkts in
  let ncap = 2 * cap in
  let pkts = Array.make ncap dummy_packet in
  let times = Array.make ncap 0.0 in
  let seqs = Array.make ncap 0 in
  for i = 0 to d.d_len - 1 do
    let j = (d.d_head + i) land (cap - 1) in
    pkts.(i) <- d.d_pkts.(j);
    times.(i) <- d.d_times.(j);
    seqs.(i) <- d.d_seqs.(j)
  done;
  d.d_pkts <- pkts;
  d.d_times <- times;
  d.d_seqs <- seqs;
  d.d_head <- 0

(* (Re-)schedule the ring's single scheduler entry from the head packet's
   stamped (time, seq), preserving per-packet pop order exactly. *)
let[@inline] arm_delivery engine d =
  let i = d.d_head in
  Sched.add_stamped engine.queue
    ~time:(Array.unsafe_get d.d_times i)
    ~seq:(Array.unsafe_get d.d_seqs i)
    d.d_event

let[@inline] push_delivery engine d ~at packet =
  if not (at >= engine.clock.Sched.v) then
    invalid_arg
      (Printf.sprintf "Engine.push_delivery: time %g is before now (%g)" at
         engine.clock.Sched.v);
  if d.d_len = Array.length d.d_pkts then grow_delivery d;
  let mask = Array.length d.d_pkts - 1 in
  let tail = (d.d_head + d.d_len) land mask in
  if
    d.d_len > 0
    && at < Array.unsafe_get d.d_times ((tail - 1) land mask)
  then invalid_arg "Engine.push_delivery: arrival times must be monotone";
  Array.unsafe_set d.d_pkts tail packet;
  Array.unsafe_set d.d_times tail at;
  Array.unsafe_set d.d_seqs tail (Sched.fresh_seq engine.queue);
  d.d_len <- d.d_len + 1;
  note_queued engine;
  if d.d_len = 1 then arm_delivery engine d

(* Drop every packet still in flight (fault injection: a cable pull takes
   the photons with it).  The ring's armed scheduler entry cannot be
   removed from the calendar queue, so it is left behind as a *stale*
   entry: [d_stale] counts them, and [step] consumes one stale entry per
   pop before delivering anything.  Consuming stale entries first can only
   delay a packet pushed between the clear and the stale pop (never
   reorder or duplicate), and in practice a downed link admits no new
   traffic until the stale entry has long fired. *)
let clear_delivery engine d =
  let dropped = d.d_len in
  if dropped > 0 then begin
    let mask = Array.length d.d_pkts - 1 in
    for i = 0 to dropped - 1 do
      Array.unsafe_set d.d_pkts ((d.d_head + i) land mask) dummy_packet
    done;
    d.d_head <- 0;
    d.d_len <- 0;
    d.d_stale <- d.d_stale + 1;
    (* The packets leave the logical queue; the stale entry stays in it
       until its pop decrements [queued] in [step]. *)
    engine.queued <- engine.queued - dropped + 1
  end;
  dropped

(* ------------------------------------------------------------------ *)
(* Broadcast rings                                                     *)
(* ------------------------------------------------------------------ *)

let broadcast () =
  let cap = 8 in
  let b =
    {
      b_handler = (fun ~l2_dst:_ ~from:_ _ -> ());
      b_pkts = Array.make cap dummy_packet;
      b_dsts = Array.make cap None;
      b_froms = Array.make cap 0;
      b_times = Array.make cap 0.0;
      b_seqs = Array.make cap 0;
      b_head = 0;
      b_len = 0;
      b_event = nop_event;
    }
  in
  b.b_event <- Broadcast b;
  b

let set_broadcast_handler b f = b.b_handler <- f
let broadcast_backlog b = b.b_len

let[@inline never] grow_broadcast b =
  let cap = Array.length b.b_pkts in
  let ncap = 2 * cap in
  let pkts = Array.make ncap dummy_packet in
  let dsts = Array.make ncap None in
  let froms = Array.make ncap 0 in
  let times = Array.make ncap 0.0 in
  let seqs = Array.make ncap 0 in
  for i = 0 to b.b_len - 1 do
    let j = (b.b_head + i) land (cap - 1) in
    pkts.(i) <- b.b_pkts.(j);
    dsts.(i) <- b.b_dsts.(j);
    froms.(i) <- b.b_froms.(j);
    times.(i) <- b.b_times.(j);
    seqs.(i) <- b.b_seqs.(j)
  done;
  b.b_pkts <- pkts;
  b.b_dsts <- dsts;
  b.b_froms <- froms;
  b.b_times <- times;
  b.b_seqs <- seqs;
  b.b_head <- 0

let[@inline] arm_broadcast engine b =
  let i = b.b_head in
  Sched.add_stamped engine.queue
    ~time:(Array.unsafe_get b.b_times i)
    ~seq:(Array.unsafe_get b.b_seqs i)
    b.b_event

let[@inline] push_broadcast engine b ~at ~l2_dst ~from packet =
  if not (at >= engine.clock.Sched.v) then
    invalid_arg
      (Printf.sprintf "Engine.push_broadcast: time %g is before now (%g)" at
         engine.clock.Sched.v);
  if b.b_len = Array.length b.b_pkts then grow_broadcast b;
  let mask = Array.length b.b_pkts - 1 in
  let tail = (b.b_head + b.b_len) land mask in
  if
    b.b_len > 0
    && at < Array.unsafe_get b.b_times ((tail - 1) land mask)
  then invalid_arg "Engine.push_broadcast: arrival times must be monotone";
  Array.unsafe_set b.b_pkts tail packet;
  Array.unsafe_set b.b_dsts tail l2_dst;
  Array.unsafe_set b.b_froms tail from;
  Array.unsafe_set b.b_times tail at;
  Array.unsafe_set b.b_seqs tail (Sched.fresh_seq engine.queue);
  b.b_len <- b.b_len + 1;
  note_queued engine;
  if b.b_len = 1 then arm_broadcast engine b

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let default_limit = 100_000_000

(* The event counter is updated in [flush_events], not per event: [step]
   only bumps a raw int, and run/run_until push the delta into the metrics
   registry on exit.  Components with their own batched counters (links,
   segments) register [on_flush] hooks and are flushed at the same points.
   Keeps the hottest loop in the simulator free of registry dispatch while
   the exported counters stay exact whenever the engine is idle (the only
   time anyone can snapshot them). *)
let flush_events engine =
  if engine.processed > engine.flushed then begin
    Obs.Registry.add engine.m_events (engine.processed - engine.flushed);
    engine.flushed <- engine.processed
  end;
  List.iter (fun hook -> hook ()) engine.flush_hooks

let on_flush engine hook = engine.flush_hooks <- engine.flush_hooks @ [ hook ]
let flush = flush_events

let step engine =
  if Sched.is_empty engine.queue then false
  else begin
    let ev = Sched.pop engine.queue ~into:engine.clock in
    engine.processed <- engine.processed + 1;
    engine.queued <- engine.queued - 1;
    (match ev with
    | Timer thunk -> thunk ()
    | Deliver d ->
        if d.d_stale > 0 then
          (* A [clear_delivery] emptied this ring while the entry was in
             the calendar queue; consume the stale token and deliver
             nothing. *)
          d.d_stale <- d.d_stale - 1
        else begin
          let mask = Array.length d.d_pkts - 1 in
          let i = d.d_head in
          let packet = Array.unsafe_get d.d_pkts i in
          Array.unsafe_set d.d_pkts i dummy_packet;
          d.d_head <- (i + 1) land mask;
          d.d_len <- d.d_len - 1;
          (* Re-arm before the receiver runs: the next head's stamped seq
             predates anything the receiver can schedule, and the receiver
             may push into this very ring. *)
          if d.d_len > 0 then arm_delivery engine d;
          d.d_receiver packet
        end
    | Broadcast b ->
        let mask = Array.length b.b_pkts - 1 in
        let i = b.b_head in
        let packet = Array.unsafe_get b.b_pkts i in
        let l2_dst = Array.unsafe_get b.b_dsts i in
        let from = Array.unsafe_get b.b_froms i in
        Array.unsafe_set b.b_pkts i dummy_packet;
        Array.unsafe_set b.b_dsts i None;
        b.b_head <- (i + 1) land mask;
        b.b_len <- b.b_len - 1;
        if b.b_len > 0 then arm_broadcast engine b;
        b.b_handler ~l2_dst ~from packet);
    true
  end

(* The one event loop: process events strictly below [stop] ([<= stop]
   when [inclusive]) and return how many fired.  It neither flushes
   batched metrics (worker domains of the partitioned driver must never
   touch the shared registry) nor advances the clock to [stop] (later
   windows still need cross-partition pushes at [>= stop] to be "in the
   future"); [run] and [run_until] add those as epilogues. *)
let run_window ?(limit = default_limit) ?(inclusive = false) engine ~stop =
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    if
      Sched.peek_time engine.queue ~into:engine.scratch
      && (engine.scratch.Sched.v < stop
         || (inclusive && engine.scratch.Sched.v = stop))
    then begin
      ignore (step engine);
      incr fired;
      if !fired > limit then invalid_arg "Engine: event limit exceeded"
    end
    else continue := false
  done;
  !fired

let run ?limit engine =
  Fun.protect
    ~finally:(fun () -> flush_events engine)
    (fun () ->
      ignore (run_window ?limit ~inclusive:true engine ~stop:Float.infinity))

let run_until ?limit engine ~stop =
  Fun.protect
    ~finally:(fun () -> flush_events engine)
    (fun () ->
      ignore (run_window ?limit ~inclusive:true engine ~stop);
      if stop > engine.clock.Sched.v then engine.clock.Sched.v <- stop)

(* Earliest due time, [infinity] when idle — the horizon input of the
   conservative window computation. *)
let next_time engine =
  if Sched.peek_time engine.queue ~into:engine.scratch then
    engine.scratch.Sched.v
  else Float.infinity

let pending engine = engine.queued
let events_processed engine = engine.processed
let max_heap_depth engine = engine.depth_max
let queue_walk_steps engine = Sched.walk_steps engine.queue
let queue_overflow_inserts engine = Sched.overflow_inserts engine.queue
