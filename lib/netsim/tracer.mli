(** Packet capture — a tcpdump for the simulator.

    A tracer taps a {!Segment} (every carried frame) or wraps a node's
    delivery path, recording timestamped packet summaries that tests and
    experiment post-mortems can filter and render. Records are kept in
    memory, capped at [limit] (oldest dropped first). *)

type record = {
  at : float;  (** simulated time the frame finished transmitting *)
  src : Addr.t;
  dst : Addr.t;
  l2_dst : Addr.t option;
  proto : Packet.proto;
  src_port : int;  (** 0 for raw *)
  dst_port : int;
  size : int;  (** wire size *)
  chan_tag : string option;
  uid : int;
}

type t

(** [on_segment segment ()] starts capturing (replaces any existing tap on
    the segment). *)
val on_segment : ?limit:int -> Segment.t -> unit -> t

(** [record_packet t ~at ~l2_dst packet] feeds a packet by hand (for
    taps the caller owns). *)
val record_packet : t -> at:float -> l2_dst:Addr.t option -> Packet.t -> unit

(** [create ()] is a tracer not attached to anything (feed it with
    {!record_packet}). *)
val create : ?limit:int -> unit -> t

(** [records t] — captured records, oldest first. *)
val records : t -> record list

(** [count t] — records currently held (≤ limit). *)
val count : t -> int

(** [dropped t] — how many old records the cap evicted. *)
val dropped : t -> int

val clear : t -> unit

(** [filter t ~f] — records satisfying [f], oldest first. *)
val filter : t -> f:(record -> bool) -> record list

(** Handy predicates. *)
val udp_to_port : int -> record -> bool

val tcp_to_port : int -> record -> bool
val between : Addr.t -> Addr.t -> record -> bool

(** [bytes t ~f] — total wire bytes over matching records. *)
val bytes : t -> f:(record -> bool) -> int

(** [pp_record fmt record] — one tcpdump-style line. *)
val pp_record : Format.formatter -> record -> unit

(** [dump t] — all records, one line each. *)
val dump : t -> string

(** [to_events t] — the capture as timeline events ([source:"tracer"],
    [kind:"packet"]), ready to {!Obs.Timeline.merge} with metric
    snapshots. Only the records still held are exported: if the cap
    evicted old records ([dropped t] > 0), the timeline starts late.
    Each event's ["uid"] numbers its packet by first appearance in the
    export (1, 2, ...), not by the process-wide {!Packet.t} uid, so the
    same simulated run exports the same timeline whatever its domain
    count. *)
val to_events : t -> Obs.Timeline.event list
