(** A small reliable, ordered message stream over the simulator's UDP —
    groundwork for the paper's §5 "better language support for TCP
    connections".

    Unidirectional, message-oriented: the sender numbers messages, keeps a
    fixed window in flight, retransmits on timeout; the receiver delivers
    in order exactly once and returns cumulative ACKs. Survives arbitrary
    packet loss (e.g. {!Link.set_up} fault injection) as long as the link
    eventually carries traffic again.

    Wire format (UDP payloads): data = [u8 'D'; u32 seq; bytes],
    ack = [u8 'A'; u32 cumulative]. *)

module Sender : sig
  type t

  (** [connect node ~dst ~dst_port ~src_port ()] prepares a stream.

      The retransmission timeout starts at [rto] and doubles on every
      timeout that makes no progress, capped at [max_rto]; any ACK that
      advances the window resets it to [rto]. With a [retry_budget], a
      stream that suffers that many {e consecutive} barren timeouts
      aborts instead of retrying forever: the queue and window are
      discarded ([unacked] drops to 0), [aborted] turns true, further
      [send]s are ignored, and [on_abort] is called once with a reason.
      Without a budget (the default) the stream retries indefinitely.

      @param window messages in flight (default 8)
      @param rto initial retransmission timeout, seconds (default 0.2)
      @param max_rto backoff cap, seconds (default 5.0);
        must be [>= rto]
      @param retry_budget consecutive no-progress timeouts tolerated
        before aborting (default: unlimited); must be positive
      @param on_abort called once when the budget is exhausted
      @param chan_tag tag every data packet for a named PLAN-P channel;
        tagged traffic is invisible to [network] channels, which is how
        control planes (e.g. ASP deployment) coexist with installed
        programs that claim all untagged UDP *)
  val connect :
    ?window:int ->
    ?rto:float ->
    ?max_rto:float ->
    ?retry_budget:int ->
    ?on_abort:(string -> unit) ->
    ?chan_tag:string ->
    Node.t ->
    dst:Addr.t ->
    dst_port:int ->
    src_port:int ->
    unit ->
    t

  (** [send t payload] enqueues one message. *)
  val send : t -> Payload.t -> unit

  (** [unacked t] — messages sent or queued but not yet acknowledged. *)
  val unacked : t -> int

  (** [retransmissions t] — timeout-triggered resends so far. *)
  val retransmissions : t -> int

  (** [acked t] — highest cumulative acknowledgement received. *)
  val acked : t -> int

  (** [close t] ends the stream as an exhausted budget does, but without
      calling [on_abort]. *)
  val close : t -> unit

  (** [aborted t] — true once the stream was closed or its retry budget
      exhausted; the stream is dead and [send] is a no-op. *)
  val aborted : t -> bool
end

module Receiver : sig
  type t

  (** [listen node ~port ~on_message ()] delivers messages to
      [on_message], in order, exactly once {e per sender stream}:
      concurrent senders to the same port are demultiplexed by (source
      address, source port), each with its own sequence space — so two
      controllers can address one daemon without colliding. [chan_tag]
      tags the ACKs the receiver sends back (pair it with the sender's
      tag). *)
  val listen :
    ?window:int ->
    ?chan_tag:string ->
    Node.t ->
    port:int ->
    on_message:(Payload.t -> unit) ->
    unit ->
    t

  (** [delivered t] — messages handed to [on_message]. *)
  val delivered : t -> int

  (** [duplicates t] — retransmitted copies discarded. *)
  val duplicates : t -> int
end
