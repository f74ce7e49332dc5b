(** The metrics registry: named, labelled counters, gauges and log-scale
    histograms with deterministic JSON/CSV export.

    Instrumented components create their handles once (at component
    construction or program compile time) with get-or-create semantics: two
    calls with the same name and label set return handles on the same
    underlying cell, so identically-named components aggregate. A handle
    is its metric's cell, so an update goes straight to the cell with no
    flag test and no allocation, which is what keeps instrumentation
    affordable on the simulator's per-packet hot paths.

    Exports are deterministic: entries sort by name then canonical label
    order, floats render through {!Json.float_repr}, and metrics registered
    as [~volatile:true] (wall-clock timings and anything else that differs
    between identical runs) are excluded unless explicitly requested. Two
    runs of the same seeded scenario therefore export byte-identical
    documents. *)

type t
(** A registry. Most callers use {!default}; tests create their own. *)

type labels = (string * string) list
(** Label sets are canonicalized (sorted by key) on registration. *)

val create : unit -> t

val default : t
(** The process-wide registry every built-in instrumentation point uses. *)

val reset : t -> unit
(** Drops every metric. Handles created before the reset keep updating
    their orphaned cells invisibly — re-create components (and thereby
    their handles) after a reset, as the determinism tests do. *)

(** {1 Counters} — monotonically increasing integers. Updates are atomic,
    so domains of a partitioned run may share a cell without losing
    increments. *)

type counter

val counter :
  ?registry:t ->
  ?labels:labels ->
  ?help:string ->
  ?volatile:bool ->
  string ->
  counter
(** Get-or-create. [~volatile:true] marks an execution-plane diagnostic
    (how the run was executed — parallel sync traffic, scheduler shape —
    rather than what the simulated network did); exporters skip it by
    default, exactly as for volatile gauges.
    @raise Invalid_argument if the name+labels pair already names a metric
    of another kind. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** @raise Invalid_argument on negative increments. *)

val count : counter -> int

(** {1 Gauges} — last-set floats, or sampled callbacks. *)

type gauge

val gauge :
  ?registry:t ->
  ?labels:labels ->
  ?help:string ->
  ?volatile:bool ->
  string ->
  gauge
(** [~volatile:true] marks a gauge whose value is not reproducible across
    identical runs (wall-clock time); exporters skip it by default. *)

val set : gauge -> float -> unit

val set_fn : gauge -> (unit -> float) -> unit
(** Replaces the stored value with a callback sampled at snapshot time —
    zero cost between snapshots, ideal for "current depth" style values. *)

val gauge_value : gauge -> float

(** {1 Histograms} — log-scale (powers of two) bucketed distributions,
    sized for latencies in seconds or queue depths in bytes. *)

type histogram

val histogram : ?registry:t -> ?labels:labels -> ?help:string -> string -> histogram
val observe : histogram -> float -> unit
val observations : histogram -> int

val histogram_slots : int
(** Number of slots every histogram has (zero + finite buckets + overflow).
    The expected length of the [counts] array in {!observe_bulk}. *)

val observe_bulk : histogram -> counts:int array -> sum:float -> unit
(** [observe_bulk h ~counts ~sum] merges a batch of pre-bucketed
    observations: [counts.(slot)] observations per slot (indexed as
    {!bucket_of}) whose values total [sum]. Used by components that batch
    per-packet samples into raw arrays and flush at run exit.
    @raise Invalid_argument if [counts] is not {!histogram_slots} long. *)

val bucket_of : float -> int
(** The slot an observation lands in: 0 for v <= 0, ascending powers of
    two after that, last slot for overflow. Exposed for tests. *)

val bucket_of_int : int -> int
(** [bucket_of_int v = bucket_of (float_of_int v)] for every [v] with
    [abs v < 2^53], computed without floating point — the hot-path form
    for integer samples (byte counts). *)

val bucket_upper_bound : int -> float
(** Inclusive upper bound of a slot; [infinity] for the overflow slot. *)

val quantile : histogram -> float -> float
(** [quantile h q] (q in [0, 1]) is the upper bound of the log-scale
    bucket holding the q-quantile of everything observed so far — the
    same resolution the exported bucket list offers. 0 when empty.
    @raise Invalid_argument when [q] is outside [0, 1]. *)

(** {1 Typed reads} — current values by name, without JSON round-trips.

    Read-only: unlike the handle constructors these never create a cell,
    so probing for a metric no component has registered is side-effect
    free and returns [None]. [Adapt.Monitor] reads its handles instead.

    @raise Invalid_argument when the name+labels pair names a metric of
    another kind. *)

val read_counter : ?registry:t -> ?labels:labels -> string -> int option
val read_gauge : ?registry:t -> ?labels:labels -> string -> float option

val read_histogram : ?registry:t -> ?labels:labels -> string -> (int * float) option
(** [(observation count, sum)] of the named histogram. *)

val read_quantile :
  ?registry:t -> ?labels:labels -> q:float -> string -> float option
(** {!quantile} by name. *)

(** {1 Snapshots and exports} *)

type sample =
  | Scounter of int
  | Sgauge of float
  | Shistogram of {
      hs_count : int;
      hs_sum : float;
      hs_buckets : (float * int) list;  (** (upper bound, count), sparse *)
    }

type entry = { e_name : string; e_labels : labels; e_sample : sample }

type snapshot = entry list
(** Sorted by name, then canonical labels. *)

val snapshot : ?include_volatile:bool -> t -> snapshot
val snapshot_json : snapshot -> Json.t

val to_json : ?include_volatile:bool -> t -> Json.t
(** The full metrics document: [{"format": "planp-metrics/1", "metrics":
    [...]}]. *)

val to_json_string : ?include_volatile:bool -> t -> string
val to_csv_string : ?include_volatile:bool -> t -> string

val pp : ?include_volatile:bool -> Format.formatter -> t -> unit
(** One metric per line, for [planpc stats]. *)

val labels_to_string : labels -> string
(** Canonical ["k=v,k2=v2"] rendering (exposed for exporters and tests). *)
