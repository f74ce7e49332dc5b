module Node = Netsim.Node
module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Payload = Netsim.Payload

(* Deterministic per-file size: a hash of the id seeds a one-shot
   log-normal draw. Median 4 KB, heavy tail capped at 256 KB. *)
let draw_file_size file_id =
  let rng = Rng.create ~seed:((file_id * 2654435761) lor 1) in
  let size = Rng.lognormal rng ~mu:(log 4000.0) ~sigma:1.0 in
  Int.max 256 (Int.min 262_144 (int_of_float size))

(* Both ends of every request ask for its size, so each id's draw is kept:
   ids below [cached_ids] in a table that grows to the largest id seen,
   0 marking one not drawn yet.  Each domain keeps its own table, so none
   is ever written from two domains. *)
let cached_ids = 1 lsl 16
let size_table = Domain.DLS.new_key (fun () -> [||])

let file_size file_id =
  if file_id < 0 || file_id >= cached_ids then draw_file_size file_id
  else begin
    let table = Domain.DLS.get size_table in
    let table =
      if file_id < Array.length table then table
      else begin
        let grown =
          Array.make (Int.min cached_ids (Int.max 1024 (2 * file_id))) 0
        in
        Array.blit table 0 grown 0 (Array.length table);
        Domain.DLS.set size_table grown;
        grown
      end
    in
    if table.(file_id) = 0 then table.(file_id) <- draw_file_size file_id;
    table.(file_id)
  end

module Trace = struct
  (* The ids still to come. A generated trace draws each id from its own
     [Rng] when it is pulled, in the order an eager draw would take. *)
  type t = { mutable ids : int Seq.t; mutable count : int }

  let generate ?(alpha = 0.9) ~requests ~files ~seed () =
    let rng = Rng.create ~seed in
    { ids = Seq.init requests (fun _ -> Rng.zipf rng ~n:files ~alpha); count = requests }

  (* Each node of [ids] is forced exactly once: a generated node draws
     from the [Rng] every time it is forced. *)
  let pull trace =
    match trace.ids () with
    | Seq.Nil -> None
    | Seq.Cons (id, rest) ->
        trace.ids <- rest;
        trace.count <- trace.count - 1;
        Some id

  let remaining trace = trace.count
end

(* ---------- server ---------- *)

module Server = struct
  type request = { req_client : Netsim.Addr.t; req_port : int; req_file : int }

  type t = {
    node : Node.t;
    port : int;
    workers : int;
    setup_time : float;
    per_byte : float;
    stream_rate : float;
    mss : int;
    body : Payload.t;  (* every segment is a view of these mss bytes *)
    mutable busy : int;
    queue : request Queue.t;
    mutable served : int;
    mutable down : bool;
  }

  let parse_request (packet : Packet.t) =
    match packet.Packet.l4 with
    | Packet.Tcp { Packet.tcp_src; _ }
      when Payload.length packet.Packet.body >= 4 ->
        Some
          {
            req_client = packet.Packet.src;
            req_port = tcp_src;
            req_file = Payload.get_u32 packet.Packet.body 0;
          }
    | Packet.Tcp _ | Packet.Udp _ | Packet.Raw -> None

  (* Stream the response as paced MSS segments. The worker process was
     already freed when service (parse + disk) completed; the network
     transfer proceeds asynchronously, as sendfile-style output would. *)
  let rec stream t request ~remaining ~seq =
    let engine = Node.engine t.node in
    let chunk = Int.min t.mss remaining in
    Node.send_tcp t.node ~dst:request.req_client ~src_port:t.port
      ~dst_port:request.req_port ~seq (Payload.sub t.body ~pos:0 ~len:chunk);
    let remaining = remaining - chunk in
    if remaining > 0 then begin
      let interval = float_of_int ((chunk + 40) * 8) /. t.stream_rate in
      Engine.schedule_after engine ~delay:interval (fun () ->
          stream t request ~remaining ~seq:(seq + 1))
    end
    else t.served <- t.served + 1

  and dispatch t =
    if t.busy < t.workers && not (Queue.is_empty t.queue) then begin
      let request = Queue.pop t.queue in
      t.busy <- t.busy + 1;
      let size = file_size request.req_file in
      let service = t.setup_time +. (float_of_int size *. t.per_byte) in
      Engine.schedule_after (Node.engine t.node) ~delay:service (fun () ->
          t.busy <- t.busy - 1;
          stream t request ~remaining:size ~seq:0;
          dispatch t);
      dispatch t
    end

  let on_request t _node packet =
    if not t.down then
      match parse_request packet with
      | Some request ->
          Queue.push request t.queue;
          dispatch t
      | None -> ()

  let start ?(port = 80) ?(workers = 8) ?(setup_time = 0.010)
      ?(per_byte = 1.0 /. 5.0e6) ?(stream_rate = 4e6) ?(mss = 1460) node () =
    let t =
      {
        node;
        port;
        workers;
        setup_time;
        per_byte;
        stream_rate;
        mss;
        body = Payload.fill mss 0x55;
        busy = 0;
        queue = Queue.create ();
        served = 0;
        down = false;
      }
    in
    Node.on_tcp node ~port (on_request t);
    t

  let requests_served t = t.served
  let queue_depth t = Queue.length t.queue

  (* Crash / recover the server process (fault-injection): while down,
     requests are silently ignored, like a host that stopped answering. *)
  let set_down t flag = t.down <- flag
  let is_down t = t.down
end

(* ---------- client ---------- *)

module Client = struct
  type pending = { expect : int; mutable got : int; issued_at : float }

  type t = {
    node : Node.t;
    server : Netsim.Addr.t;
    port : int;
    warmup : float;
    retry_timeout : float;
    trace : Trace.t;
    pending : pending Netsim.Int_table.t;  (* our port -> state *)
    mutable next_port : int;
    mutable done_count : int;
    mutable retries : int;
    mutable response_time_sum : float;
    response_times : Netsim.Summary.t;
    mutable flying : int;
  }

  let rec issue t =
    match Trace.pull t.trace with
    | None -> ()
    | Some file_id -> issue_file t file_id

  (* Issue one request; if the response stalls (a segment was dropped and
     this model has no TCP retransmission), give up on the connection and
     retry the file on a fresh port — a crude but bounded stand-in for
     TCP reliability. *)
  and issue_file t file_id =
    let port = t.next_port in
    t.next_port <- t.next_port + 1;
    let engine = Node.engine t.node in
    let now = Engine.now engine in
    Netsim.Int_table.replace t.pending port
      { expect = file_size file_id; got = 0; issued_at = now };
    t.flying <- t.flying + 1;
    let writer = Payload.Writer.create () in
    Payload.Writer.u32 writer file_id;
    Node.send_tcp t.node ~dst:t.server ~src_port:port ~dst_port:t.port
      (Payload.Writer.finish writer);
    Engine.schedule_after engine ~delay:t.retry_timeout (fun () ->
        match Netsim.Int_table.find_opt t.pending port with
        | Some pending when pending.got < pending.expect ->
            Netsim.Int_table.remove t.pending port;
            t.flying <- t.flying - 1;
            t.retries <- t.retries + 1;
            issue_file t file_id
        | Some _ | None -> ())

  and on_response t _node (packet : Packet.t) =
    match packet.Packet.l4 with
    | Packet.Tcp { Packet.tcp_dst; _ } -> (
        match Netsim.Int_table.find_opt t.pending tcp_dst with
        | None -> ()
        | Some pending ->
            pending.got <- pending.got + Payload.length packet.Packet.body;
            if pending.got >= pending.expect then begin
              Netsim.Int_table.remove t.pending tcp_dst;
              t.flying <- t.flying - 1;
              let now = Engine.now (Node.engine t.node) in
              if now >= t.warmup then begin
                t.done_count <- t.done_count + 1;
                t.response_time_sum <-
                  t.response_time_sum +. (now -. pending.issued_at);
                Netsim.Summary.add t.response_times (now -. pending.issued_at)
              end;
              issue t
            end)
    | Packet.Udp _ | Packet.Raw -> ()

  let start ?(port = 80) ?(warmup = 5.0) ?(retry_timeout = 2.0) node ~server
      ~workers ~trace () =
    let t =
      {
        node;
        server;
        port;
        warmup;
        retry_timeout;
        trace;
        pending = Netsim.Int_table.create 64;
        next_port = 10000;
        done_count = 0;
        retries = 0;
        response_time_sum = 0.0;
        response_times = Netsim.Summary.create ();
        flying = 0;
      }
    in
    (* Responses arrive on fresh ephemeral ports: catch them all. *)
    Node.on_tcp_default node (on_response t);
    for _ = 1 to workers do
      issue t
    done;
    t

  let completed t = t.done_count
  let in_flight t = t.flying
  let retries t = t.retries
  let response_times t = t.response_times

  let mean_response_time t =
    if t.done_count = 0 then 0.0
    else t.response_time_sum /. float_of_int t.done_count
end
