let data_tag = Char.code 'D'
let ack_tag = Char.code 'A'

module Sender = struct
  type t = {
    node : Node.t;
    dst : Addr.t;
    dst_port : int;
    src_port : int;
    chan_tag : string option;
    window : int;
    rto : float;  (* initial timeout; backoff resets here on progress *)
    max_rto : float;
    retry_budget : int option;  (* max consecutive no-progress timeouts *)
    on_abort : string -> unit;
    queue : Payload.t Queue.t;  (* not yet transmitted *)
    inflight : (int, Payload.t) Hashtbl.t;  (* seq -> message *)
    mutable next_seq : int;  (* next fresh sequence number *)
    mutable base : int;  (* lowest unacknowledged seq *)
    mutable retx : int;
    mutable cur_rto : float;  (* doubles per barren timeout, capped *)
    mutable strikes : int;  (* consecutive timeouts without progress *)
    mutable is_aborted : bool;
    mutable timer_armed : bool;
    mutable timeout_thunk : unit -> unit;  (* preallocated, set at connect *)
  }

  let encode_data seq payload =
    let writer = Payload.Writer.create () in
    Payload.Writer.u8 writer data_tag;
    Payload.Writer.u32 writer seq;
    Payload.Writer.raw writer payload;
    Payload.Writer.finish writer

  let transmit t seq payload =
    Node.send_udp ?chan_tag:t.chan_tag t.node ~dst:t.dst ~src_port:t.src_port
      ~dst_port:t.dst_port (encode_data seq payload)

  let close t =
    t.is_aborted <- true;
    Queue.clear t.queue;
    Hashtbl.reset t.inflight

  (* Move queued messages into the window and (re)arm the timer. *)
  let pump t =
    while Hashtbl.length t.inflight < t.window && not (Queue.is_empty t.queue) do
      let payload = Queue.pop t.queue in
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Hashtbl.replace t.inflight seq payload;
      transmit t seq payload
    done;
    if (not t.timer_armed) && Hashtbl.length t.inflight > 0 then begin
      t.timer_armed <- true;
      (* One thunk per sender, allocated at connect — re-arming the RTO
         timer on every pump does not build a fresh closure. *)
      Engine.schedule_after (Node.engine t.node) ~delay:t.cur_rto t.timeout_thunk
    end

  (* Go-back-N-ish: retransmit everything still in flight, backing the
     timeout off exponentially (capped at [max_rto]) until an ACK makes
     progress.  A retry budget bounds consecutive barren timeouts; past
     it the stream gives up cleanly instead of retrying forever into a
     black hole. *)
  let on_timeout t =
    if (not t.is_aborted) && Hashtbl.length t.inflight > 0 then begin
      t.strikes <- t.strikes + 1;
      match t.retry_budget with
      | Some budget when t.strikes > budget ->
          close t;
          t.on_abort
            (Printf.sprintf "retry budget exhausted (%d timeouts at seq %d)"
               budget t.base)
      | Some _ | None ->
          t.cur_rto <- Float.min (t.cur_rto *. 2.0) t.max_rto;
          let pending =
            List.sort Int.compare
              (Hashtbl.fold (fun seq _ acc -> seq :: acc) t.inflight [])
          in
          List.iter
            (fun seq ->
              t.retx <- t.retx + 1;
              transmit t seq (Hashtbl.find t.inflight seq))
            pending;
          pump t
    end

  let on_ack t (packet : Packet.t) =
    let body = packet.Packet.body in
    if
      (not t.is_aborted)
      && Payload.length body = 5
      && Payload.get_u8 body 0 = ack_tag
    then begin
      let cumulative = Payload.get_u32 body 1 in
      (* [cumulative >= next_seq] acknowledges data never sent — a
         corrupted ACK; trusting it would hang the window forever. *)
      if cumulative >= t.base && cumulative < t.next_seq then begin
        for seq = t.base to cumulative do
          Hashtbl.remove t.inflight seq
        done;
        t.base <- cumulative + 1;
        t.cur_rto <- t.rto;
        t.strikes <- 0;
        pump t
      end
    end

  let connect ?(window = 8) ?(rto = 0.2) ?(max_rto = 5.0) ?retry_budget
      ?on_abort ?chan_tag node ~dst ~dst_port ~src_port () =
    if window <= 0 then invalid_arg "Reliable.Sender.connect: window";
    if rto <= 0.0 then invalid_arg "Reliable.Sender.connect: rto";
    if max_rto < rto then invalid_arg "Reliable.Sender.connect: max_rto < rto";
    (match retry_budget with
    | Some b when b <= 0 -> invalid_arg "Reliable.Sender.connect: retry_budget"
    | Some _ | None -> ());
    let t =
      {
        node;
        dst;
        dst_port;
        src_port;
        chan_tag;
        window;
        rto;
        max_rto;
        retry_budget;
        on_abort = (match on_abort with Some f -> f | None -> fun _ -> ());
        queue = Queue.create ();
        inflight = Hashtbl.create 16;
        next_seq = 0;
        base = 0;
        retx = 0;
        cur_rto = rto;
        strikes = 0;
        is_aborted = false;
        timer_armed = false;
        timeout_thunk = (fun () -> ());
      }
    in
    t.timeout_thunk <-
      (fun () ->
        t.timer_armed <- false;
        on_timeout t);
    Node.on_udp node ~port:src_port (fun _ packet -> on_ack t packet);
    t

  let send t payload =
    if not t.is_aborted then begin
      Queue.push payload t.queue;
      pump t
    end

  let unacked t = Hashtbl.length t.inflight + Queue.length t.queue
  let retransmissions t = t.retx
  let acked t = t.base - 1
  let aborted t = t.is_aborted
end

module Receiver = struct
  (* Per-sender reassembly state: every (source address, source port)
     pair is its own stream with its own sequence space. Without the
     demultiplexing, a second sender's fresh stream (starting at seq 0)
     would be classified as duplicates of an earlier sender's progress,
     cumulatively acked as received, and silently never delivered — any
     two controllers talking to one daemon port would deadlock the
     second one into a timeout. *)
  type stream = {
    buffered : (int, Payload.t) Hashtbl.t;  (* out-of-order *)
    mutable expected : int;  (* next in-order seq *)
  }

  type t = {
    node : Node.t;
    port : int;
    chan_tag : string option;
    window : int;
    on_message : Payload.t -> unit;
    streams : (Addr.t * int, stream) Hashtbl.t;
    mutable delivered_count : int;
    mutable dup_count : int;
  }

  let stream_of t (packet : Packet.t) udp_src =
    let key = (packet.Packet.src, udp_src) in
    match Hashtbl.find_opt t.streams key with
    | Some stream -> stream
    | None ->
        let stream = { buffered = Hashtbl.create 16; expected = 0 } in
        Hashtbl.replace t.streams key stream;
        stream

  let send_ack t stream (packet : Packet.t) udp_src =
    let writer = Payload.Writer.create () in
    Payload.Writer.u8 writer ack_tag;
    Payload.Writer.u32 writer (stream.expected - 1);
    Node.send_udp ?chan_tag:t.chan_tag t.node ~dst:packet.Packet.src
      ~src_port:t.port ~dst_port:udp_src
      (Payload.Writer.finish writer)

  let on_data t (packet : Packet.t) =
    let body = packet.Packet.body in
    match packet.Packet.l4 with
    | Packet.Udp { Packet.udp_src; _ }
      when Payload.length body >= 5 && Payload.get_u8 body 0 = data_tag ->
        let stream = stream_of t packet udp_src in
        let seq = Payload.get_u32 body 1 in
        (* Buffered out-of-order messages outlive the frame they arrived
           in: compact so they stop retaining the framed packet body. *)
        let payload =
          Payload.compact
            (Payload.sub body ~pos:5 ~len:(Payload.length body - 5))
        in
        if seq < stream.expected || Hashtbl.mem stream.buffered seq then
          t.dup_count <- t.dup_count + 1
        else if seq < stream.expected + t.window then begin
          Hashtbl.replace stream.buffered seq payload;
          while Hashtbl.mem stream.buffered stream.expected do
            let message = Hashtbl.find stream.buffered stream.expected in
            Hashtbl.remove stream.buffered stream.expected;
            stream.expected <- stream.expected + 1;
            t.delivered_count <- t.delivered_count + 1;
            t.on_message message
          done
        end;
        (* Ack whatever is in order so far (also re-acks duplicates, which
           is what unblocks a sender whose acks were lost). *)
        send_ack t stream packet udp_src
    | _ -> ()

  let listen ?(window = 64) ?chan_tag node ~port ~on_message () =
    let t =
      {
        node;
        port;
        chan_tag;
        window;
        on_message;
        streams = Hashtbl.create 4;
        delivered_count = 0;
        dup_count = 0;
      }
    in
    Node.on_udp node ~port (fun _ packet -> on_data t packet);
    t

  let delivered t = t.delivered_count
  let duplicates t = t.dup_count
end
