(** The condition monitor: a periodic probe that samples {!Obs.Registry}
    metrics (and application callbacks) into named, EWMA-smoothed
    {!Signal}s.

    A monitor ticks as a pacer of the simulation driver
    ({!Netsim.Par_engine.add_pacer}), not as an engine event: a tick at
    time [T] runs after every event at [<= T] on every partition, with
    every engine clock forced to [T] and every partition's batched
    counters (links, segments, the fault plane) flushed — registry reads
    are exact at every probe instant, and identical for any domain count.
    Ticks are not counted in [netsim.engine.events].

    Cost model (the Faults precedent): a monitor only exists when
    something armed it. A run that arms no monitor registers no pacer —
    the golden-parity tests pin runs with an empty adaptation policy
    event-for-event to runs without an adaptation plane. *)

(** Where a signal's raw sample comes from each tick. *)
type source =
  | Counter_rate of Obs.Registry.counter
      (** increase per second since the previous tick *)
  | Gauge of Obs.Registry.gauge  (** current gauge value *)
  | Quantile of Obs.Registry.histogram * float
      (** running q-quantile of everything observed so far
          (see {!Obs.Registry.quantile}) *)
  | Rate_of of (unit -> float)
      (** increase per second of a sampled cumulative quantity, for
          application state with no registry counter *)
  | Sample of (unit -> float)  (** raw value of a callback *)

type t

val create :
  ?registry:Obs.Registry.t -> period:float -> until:float -> unit -> t
(** A monitor ticking every [period] seconds of simulated time, from
    [period] after {!start} while the tick time stays [<= until] (bounded
    so a run driven to quiescence terminates). Nothing ticks until
    {!start}.
    @raise Invalid_argument when [period <= 0]. *)

val watch : t -> ?alpha:float -> name:string -> source -> Signal.t
(** Register a signal fed from [source] every tick. Also registers the
    [adapt.signal.value{signal=<name>}] gauge (sampled at snapshot time).
    @raise Invalid_argument if [name] is already watched or the monitor
    has started. *)

val on_tick : t -> (now:float -> unit) -> unit
(** [on_tick t hook] runs [hook] after each tick's sampling — where the
    policy engine evaluates its rules. Hooks run in registration order. *)

val start : t -> Netsim.Par_engine.t -> unit
(** [start t par] registers the tick chain as a pacer of [par], first
    tick at [Par_engine.now par + period]; idempotent. *)

val signal : t -> string -> Signal.t option
val signals : t -> Signal.t list
(** In registration order. *)

val ticks : t -> int
