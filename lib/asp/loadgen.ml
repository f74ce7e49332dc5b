module Node = Netsim.Node
module Engine = Netsim.Engine

type t = {
  node : Node.t;
  dst : Netsim.Addr.t;
  port : int;
  packet_size : int;
  body : Netsim.Payload.t;  (* every packet's payload; never mutated *)
  schedule : (float * float) list;  (* (time, kB/s), sorted *)
  until : float;
  mutable packets : int;
  mutable bytes : int;
}

(* Rate (bytes/s) in force at [time], and when it next changes. *)
let rate_at t time =
  let rec go current next_change = function
    | [] -> (current, next_change)
    | (at, kbps) :: rest ->
        if at <= time then go (kbps *. 1000.0) next_change rest
        else (current, Float.min next_change at)
  in
  go 0.0 infinity t.schedule

let rec tick t () =
  let engine = Node.engine t.node in
  let now = Engine.now engine in
  if now < t.until then begin
    let rate, next_change = rate_at t now in
    if rate <= 0.0 then begin
      (* Paused: wake up at the next schedule step. *)
      if next_change < infinity && next_change < t.until then
        Engine.schedule engine ~at:next_change (tick t)
    end
    else begin
      Node.send_udp t.node ~dst:t.dst ~src_port:t.port ~dst_port:t.port
        t.body;
      t.packets <- t.packets + 1;
      t.bytes <- t.bytes + t.packet_size;
      let interval = float_of_int t.packet_size /. rate in
      let next = Float.min (now +. interval) next_change in
      Engine.schedule engine ~at:next (tick t)
    end
  end

let start ?(packet_size = 1024) ?(port = 9) node ~dst ~schedule ~until () =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) schedule in
  let t =
    {
      node;
      dst;
      port;
      packet_size;
      body = Netsim.Payload.fill packet_size 0xAA;
      schedule = sorted;
      until;
      packets = 0;
      bytes = 0;
    }
  in
  let first = match sorted with (at, _) :: _ -> at | [] -> 0.0 in
  Engine.schedule (Node.engine node) ~at:first (tick t);
  t

let packets_sent t = t.packets
let bytes_sent t = t.bytes
