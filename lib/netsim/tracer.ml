type record = {
  at : float;
  src : Addr.t;
  dst : Addr.t;
  l2_dst : Addr.t option;
  proto : Packet.proto;
  src_port : int;
  dst_port : int;
  size : int;
  chan_tag : string option;
  uid : int;
}

type t = {
  limit : int;
  queue : record Queue.t;
  mutable evicted : int;
}

let create ?(limit = 100_000) () =
  if limit <= 0 then invalid_arg "Tracer.create: limit must be positive";
  { limit; queue = Queue.create (); evicted = 0 }

let record_packet t ~at ~l2_dst (packet : Packet.t) =
  let src_port, dst_port =
    match packet.Packet.l4 with
    | Packet.Tcp h -> (h.Packet.tcp_src, h.Packet.tcp_dst)
    | Packet.Udp h -> (h.Packet.udp_src, h.Packet.udp_dst)
    | Packet.Raw -> (0, 0)
  in
  Queue.push
    {
      at;
      src = packet.Packet.src;
      dst = packet.Packet.dst;
      l2_dst;
      proto = Packet.proto packet;
      src_port;
      dst_port;
      size = Packet.wire_size packet;
      chan_tag = packet.Packet.chan_tag;
      uid = packet.Packet.uid;
    }
    t.queue;
  if Queue.length t.queue > t.limit then begin
    ignore (Queue.pop t.queue);
    t.evicted <- t.evicted + 1
  end

let on_segment ?limit segment () =
  let t = create ?limit () in
  Segment.set_tap segment (fun ~at ~l2_dst packet ->
      record_packet t ~at ~l2_dst packet);
  t

let records t = List.of_seq (Queue.to_seq t.queue)
let count t = Queue.length t.queue
let dropped t = t.evicted

let clear t =
  Queue.clear t.queue;
  t.evicted <- 0

let filter t ~f = List.filter f (records t)

let udp_to_port port record =
  record.proto = Packet.Proto_udp && record.dst_port = port

let tcp_to_port port record =
  record.proto = Packet.Proto_tcp && record.dst_port = port

let between a b record =
  (Addr.equal record.src a && Addr.equal record.dst b)
  || (Addr.equal record.src b && Addr.equal record.dst a)

let bytes t ~f =
  List.fold_left (fun acc record -> acc + record.size) 0 (filter t ~f)

let proto_name = function
  | Packet.Proto_tcp -> "tcp"
  | Packet.Proto_udp -> "udp"
  | Packet.Proto_raw -> "raw"

let pp_record fmt record =
  Format.fprintf fmt "%10.6f %s %a:%d > %a:%d len %d" record.at
    (proto_name record.proto) Addr.pp record.src record.src_port Addr.pp
    record.dst record.dst_port record.size;
  (match record.chan_tag with
  | Some tag -> Format.fprintf fmt " chan %s" tag
  | None -> ());
  match record.l2_dst with
  | Some l2 when not (Addr.equal l2 record.dst) ->
      Format.fprintf fmt " via %a" Addr.pp l2
  | Some _ | None -> ()

let record_event record =
  let fields =
    [
      ("src", Obs.Json.String (Addr.to_string record.src));
      ("dst", Obs.Json.String (Addr.to_string record.dst));
      ("proto", Obs.Json.String (proto_name record.proto));
      ("src_port", Obs.Json.Int record.src_port);
      ("dst_port", Obs.Json.Int record.dst_port);
      ("size", Obs.Json.Int record.size);
      ("uid", Obs.Json.Int record.uid);
    ]
  in
  let fields =
    match record.chan_tag with
    | Some tag -> fields @ [ ("chan", Obs.Json.String tag) ]
    | None -> fields
  in
  let fields =
    match record.l2_dst with
    | Some l2 when not (Addr.equal l2 record.dst) ->
        fields @ [ ("l2_dst", Obs.Json.String (Addr.to_string l2)) ]
    | Some _ | None -> fields
  in
  Obs.Timeline.event ~at:record.at ~source:"tracer" ~kind:"packet" fields

(* Packet uids come from a process-wide counter, so the same run draws
   different ones under a different domain count (or after other runs in
   the process). The export renumbers them by first appearance in the
   records' order, which is a function of the simulated run alone. *)
let to_events t =
  let renumbered = Hashtbl.create 64 in
  List.map
    (fun record ->
      let uid =
        match Hashtbl.find_opt renumbered record.uid with
        | Some uid -> uid
        | None ->
            let uid = Hashtbl.length renumbered + 1 in
            Hashtbl.add renumbered record.uid uid;
            uid
      in
      record_event { record with uid })
    (records t)

let dump t =
  let buffer = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buffer in
  List.iter (fun record -> Format.fprintf fmt "%a@." pp_record record) (records t);
  Format.pp_print_flush fmt ();
  Buffer.contents buffer
