type source =
  | Counter_rate of Obs.Registry.counter
  | Gauge of Obs.Registry.gauge
  | Quantile of Obs.Registry.histogram * float
  | Rate_of of (unit -> float)
  | Sample of (unit -> float)

type watch = {
  w_signal : Signal.t;
  w_source : source;
  (* Previous cumulative value for the rate sources, captured at [start]
     and updated every tick. *)
  mutable w_prev : float;
}

type t = {
  period : float;
  until : float;
  mutable watches : watch list; (* reverse registration order *)
  mutable hooks : (now:float -> unit) list; (* reverse registration order *)
  mutable started : bool;
  mutable ticks : int;
  m_ticks : Obs.Registry.counter;
  registry : Obs.Registry.t;
}

let create ?(registry = Obs.Registry.default) ~period ~until () =
  if period <= 0.0 then invalid_arg "Adapt.Monitor.create: period <= 0";
  {
    period;
    until;
    watches = [];
    hooks = [];
    started = false;
    ticks = 0;
    m_ticks =
      Obs.Registry.counter ~registry ~help:"monitor probe ticks run"
        "adapt.monitor.ticks";
    registry;
  }

let cumulative watch =
  match watch.w_source with
  | Counter_rate counter -> float_of_int (Obs.Registry.count counter)
  | Rate_of f -> f ()
  | Gauge _ | Quantile _ | Sample _ -> 0.0

let watch t ?alpha ~name source =
  if t.started then invalid_arg "Adapt.Monitor.watch: monitor already started";
  if
    List.exists
      (fun watch -> Signal.name watch.w_signal = name)
      t.watches
  then invalid_arg (Printf.sprintf "Adapt.Monitor.watch: duplicate signal %s" name);
  let signal = Signal.create ?alpha name in
  let watch = { w_signal = signal; w_source = source; w_prev = 0.0 } in
  t.watches <- watch :: t.watches;
  Obs.Registry.set_fn
    (Obs.Registry.gauge ~registry:t.registry
       ~labels:[ ("signal", name) ]
       ~help:"smoothed condition-signal value" "adapt.signal.value")
    (fun () -> Signal.value signal);
  signal

let on_tick t hook = t.hooks <- hook :: t.hooks

let sample t watch =
  match watch.w_source with
  | Gauge gauge -> Obs.Registry.gauge_value gauge
  | Quantile (histogram, q) -> Obs.Registry.quantile histogram q
  | Sample f -> f ()
  | Counter_rate _ | Rate_of _ ->
      let now = cumulative watch in
      let rate = (now -. watch.w_prev) /. t.period in
      watch.w_prev <- now;
      rate

let tick t ~now =
  List.iter
    (fun watch -> Signal.push watch.w_signal (sample t watch))
    (List.rev t.watches);
  t.ticks <- t.ticks + 1;
  Obs.Registry.incr t.m_ticks;
  List.iter (fun hook -> hook ~now) (List.rev t.hooks)

let start t par =
  if not t.started then begin
    t.started <- true;
    List.iter (fun watch -> watch.w_prev <- cumulative watch) t.watches;
    (* The pacer flushes every partition's engine (in partition order)
       before firing, so the tick reads a globally consistent registry. *)
    Netsim.Par_engine.add_pacer par ~period:t.period ~until:t.until (tick t)
  end

let signal t name =
  List.find_map
    (fun watch ->
      if Signal.name watch.w_signal = name then Some watch.w_signal else None)
    t.watches

let signals t = List.rev_map (fun watch -> watch.w_signal) t.watches
let ticks t = t.ticks
