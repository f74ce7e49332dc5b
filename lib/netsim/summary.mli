(** Scalar sample summaries: mean, percentiles, extrema.

    Samples accumulate in insertion order. A percentile is found by
    selection, in expected linear time, and may reorder the samples;
    extrema are one scan. Used by the experiments for response-time
    distributions. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int

(** [iter t f] visits every sample (unspecified order). *)
val iter : t -> (float -> unit) -> unit

(** [merge ~into t] adds all of [t]'s samples to [into]. *)
val merge : into:t -> t -> unit

(** All of the following return 0.0 on an empty summary. *)

val mean : t -> float

val min : t -> float
val max : t -> float

(** [percentile t p] for [p] in [0, 100]: nearest-rank.
    @raise Invalid_argument outside the range. *)
val percentile : t -> float -> float

val stddev : t -> float

(** [pp fmt t] — "n=… mean=… p50=… p95=… max=…". *)
val pp : Format.formatter -> t -> unit
