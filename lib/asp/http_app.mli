(** The HTTP application of §3.2: an Apache-like multi-process server and
    closed-loop trace-replaying clients.

    Protocol model: a request is one TCP packet to port 80 carrying a file
    id; the response is the file streamed back as MSS-sized TCP segments
    from port 80 to the requesting port. A request occupies one of the
    server's worker processes for a setup time plus a size-proportional
    disk/CPU time, then the response streams at the per-connection rate.

    The workload substitutes the paper's replayed IRISA trace (80 000
    accesses): Zipf-popular files with log-normal sizes, deterministic per
    seed. *)

(** [file_size file_id] — the catalog, shared by servers and clients:
    log-normal-ish sizes (median 4 KB), deterministic in [file_id]. Each
    domain draws an id's size once and keeps it. *)
val file_size : int -> int

(** Shared trace of file ids. *)
module Trace : sig
  type t

  (** [generate ~requests ~files ~seed ()] is a trace of [requests]
      Zipf(0.9) samples over [files] files. Each id is drawn when it is
      pulled, from the trace's own generator and in the same order as
      drawing them all up front, so a run pays only for the ids it uses. *)
  val generate : ?alpha:float -> requests:int -> files:int -> seed:int -> unit -> t

  (** [pull trace] is the next file id; [None] when exhausted. *)
  val pull : t -> int option

  (** [remaining trace] is the number of ids [pull] will still return. *)
  val remaining : t -> int
end

module Server : sig
  type t

  (** [start node ()] serves port 80.

      @param workers Apache child processes (default 8)
      @param setup_time per-request fixed cost, seconds (default 10 ms)
      @param per_byte disk/CPU seconds per response byte (default 1/5MB)
      @param stream_rate response pacing, bits/s (default 4 Mb/s — below
        the clients' access links, since the model has no TCP congestion
        control) *)
  val start :
    ?port:int ->
    ?workers:int ->
    ?setup_time:float ->
    ?per_byte:float ->
    ?stream_rate:float ->
    ?mss:int ->
    Netsim.Node.t ->
    unit ->
    t

  val requests_served : t -> int
  val queue_depth : t -> int

  (** [set_down t true] crashes the server process: requests are silently
      ignored until [set_down t false] (fault injection for the
      fault-tolerance experiment). *)
  val set_down : t -> bool -> unit

  val is_down : t -> bool
end

module Client : sig
  type t

  (** [start node ~server ~workers ~trace ()] runs [workers] closed-loop
      request generators against [server] (a virtual or physical address),
      drawing file ids from the shared [trace]. Completions before
      [warmup] are not counted. A response stalled for [retry_timeout]
      seconds is abandoned and the file re-requested on a fresh port. *)
  val start :
    ?port:int ->
    ?warmup:float ->
    ?retry_timeout:float ->
    Netsim.Node.t ->
    server:Netsim.Addr.t ->
    workers:int ->
    trace:Trace.t ->
    unit ->
    t

  (** [completed t] — responses fully received after warmup. *)
  val completed : t -> int

  val in_flight : t -> int

  (** [mean_response_time t] over counted completions, seconds. *)
  val mean_response_time : t -> float

  (** [retries t] — abandoned-and-reissued requests (loss indicator). *)
  val retries : t -> int

  (** [response_times t] — the full distribution of counted completions. *)
  val response_times : t -> Netsim.Summary.t
end
