type endpoint = A | B

(* Where a direction's transmitted packets go: straight into its delivery
   ring ([Direct], the only case on an unpartitioned topology), or into a
   cross-domain conduit installed by the parallel driver when the link is
   cut between partitions — the receiving domain drains the conduit into
   the ring at the next window barrier ({!conduit_deliver}). *)
type out_target = Direct | Conduit of (at:float -> Packet.t -> unit)

(* Per-packet metrics are batched into raw fields and flushed to the
   registry by an [Engine.on_flush] hook (so exported counters are exact
   whenever the engine is idle).  [fl] is a float array so the hot stores
   to [busy_until] and the backlog-histogram sum never box.

   A direction carries two engines: [d_tx_eng] (the transmitting
   endpoint's engine, whose clock times sends) and [d_ring_eng] (the
   receiving endpoint's engine, which pops the delivery ring).  They are
   the same engine except on a topology sharded across domains. *)
type direction = {
  fl : float array; (* 0 = busy_until, 1 = backlog sum since last flush *)
  delivery : Engine.delivery;
  mutable d_tx_eng : Engine.t;
  mutable d_ring_eng : Engine.t;
  mutable d_out : out_target;
  dir_stat : Flowstat.t;
  mutable r_packets : int; (* raw totals since creation *)
  mutable r_bytes : int;
  mutable r_drops : int;
  mutable f_packets : int; (* high-water marks already flushed *)
  mutable f_bytes : int;
  mutable f_drops : int;
  h_counts : int array; (* backlog histogram buckets since last flush *)
  m_packets : Obs.Registry.counter;
  m_bytes : Obs.Registry.counter;
  m_drops : Obs.Registry.counter;
  m_backlog : Obs.Registry.histogram;
}

type t = {
  link_name : string;
  mutable bandwidth : float;
  latency : float;
  mutable queue_capacity : int;
  a_to_b : direction;  (* transmits from A, delivers at B *)
  b_to_a : direction;
  mutable up : bool;
  mutable impair : Impair.t option; (* None = fault plane idle, zero cost *)
}

let other = function A -> B | B -> A

let make_direction ~link_name ~dir ~engine =
  let labels = [ ("link", link_name); ("dir", dir) ] in
  {
    fl = [| 0.0; 0.0 |];
    delivery = Engine.delivery ();
    d_tx_eng = engine;
    d_ring_eng = engine;
    d_out = Direct;
    dir_stat = Flowstat.create ();
    r_packets = 0;
    r_bytes = 0;
    r_drops = 0;
    f_packets = 0;
    f_bytes = 0;
    f_drops = 0;
    h_counts = Array.make Obs.Registry.histogram_slots 0;
    m_packets =
      Obs.Registry.counter ~labels ~help:"packets transmitted"
        "netsim.link.tx_packets";
    m_bytes =
      Obs.Registry.counter ~labels ~help:"wire bytes transmitted"
        "netsim.link.tx_bytes";
    m_drops =
      Obs.Registry.counter ~labels ~help:"packets dropped (down or full queue)"
        "netsim.link.drops";
    m_backlog =
      Obs.Registry.histogram ~labels
        ~help:"queue occupancy (bytes) sampled at each send"
        "netsim.link.backlog_bytes";
  }

(* Push batched counters to the registry: the deltas since the last
   flush, after which the flushed marks advance. *)
let flush_direction dir =
  let dp = dir.r_packets - dir.f_packets in
  if dp > 0 then begin
    Obs.Registry.add dir.m_packets dp;
    dir.f_packets <- dir.r_packets;
    (* One histogram observation per transmitted packet. *)
    Obs.Registry.observe_bulk dir.m_backlog ~counts:dir.h_counts
      ~sum:dir.fl.(1);
    Array.fill dir.h_counts 0 (Array.length dir.h_counts) 0;
    dir.fl.(1) <- 0.0
  end;
  let db = dir.r_bytes - dir.f_bytes in
  if db > 0 then begin
    Obs.Registry.add dir.m_bytes db;
    dir.f_bytes <- dir.r_bytes
  end;
  let dd = dir.r_drops - dir.f_drops in
  if dd > 0 then begin
    Obs.Registry.add dir.m_drops dd;
    dir.f_drops <- dir.r_drops
  end

let create ?(name = "link") ?(queue_capacity = 65536) engine ~bandwidth_bps
    ~latency () =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth must be positive";
  if latency < 0.0 then invalid_arg "Link.create: negative latency";
  let link =
    {
      link_name = name;
      bandwidth = bandwidth_bps;
      latency;
      queue_capacity;
      a_to_b = make_direction ~link_name:name ~dir:"a_to_b" ~engine;
      b_to_a = make_direction ~link_name:name ~dir:"b_to_a" ~engine;
      up = true;
      impair = None;
    }
  in
  Engine.on_flush engine (fun () ->
      flush_direction link.a_to_b;
      flush_direction link.b_to_a);
  link

let name link = link.link_name
let bandwidth_bps link = link.bandwidth

let set_bandwidth_bps link bw =
  if bw <= 0.0 then invalid_arg "Link.set_bandwidth_bps: bandwidth must be positive";
  link.bandwidth <- bw

let queue_capacity link = link.queue_capacity

let set_queue_capacity link cap =
  if cap < 0 then invalid_arg "Link.set_queue_capacity: negative capacity";
  link.queue_capacity <- cap

let set_up link flag =
  if link.up && not flag then begin
    (* A cable pull loses the packets already on the wire: drop both
       directions' in-flight rings and charge each loss to the direction
       that transmitted it. *)
    let drop dir =
      (* The ring lives on the receiving endpoint's engine. *)
      let n = Engine.clear_delivery dir.d_ring_eng dir.delivery in
      if n > 0 then dir.r_drops <- dir.r_drops + n
    in
    drop link.a_to_b;
    drop link.b_to_a
  end;
  link.up <- flag

let is_up link = link.up
let set_impairment link impair = link.impair <- impair
let impairment link = link.impair

(* The direction that transmits *from* the given endpoint. *)
let[@inline] tx_direction link = function
  | A -> link.a_to_b
  | B -> link.b_to_a

let set_receiver link endpoint f =
  (* Packets arriving at [endpoint] travel on the direction transmitting
     from the other end. *)
  Engine.set_delivery_receiver (tx_direction link (other endpoint)).delivery f

let[@inline] backlog_of direction ~now ~bandwidth =
  let busy = Array.unsafe_get direction.fl 0 in
  if busy <= now then 0 else int_of_float ((busy -. now) *. bandwidth /. 8.0)

let[@inline] transmit link dir ~now ~backlog packet =
  let size = Packet.wire_size packet in
  let busy = Array.unsafe_get dir.fl 0 in
  let start = if now > busy then now else busy in
  let finish = start +. (float_of_int (size * 8) /. link.bandwidth) in
  Array.unsafe_set dir.fl 0 finish;
  Flowstat.record dir.dir_stat ~now:finish size;
  dir.r_packets <- dir.r_packets + 1;
  dir.r_bytes <- dir.r_bytes + size;
  let slot = Obs.Registry.bucket_of_int backlog in
  Array.unsafe_set dir.h_counts slot (Array.unsafe_get dir.h_counts slot + 1);
  Array.unsafe_set dir.fl 1
    (Array.unsafe_get dir.fl 1 +. float_of_int backlog);
  let at = finish +. link.latency in
  match dir.d_out with
  | Direct -> Engine.push_delivery dir.d_ring_eng dir.delivery ~at packet
  | Conduit push -> push ~at packet

let send link ~from packet =
  let dir = tx_direction link from in
  let now = Engine.now dir.d_tx_eng in
  let size = Packet.wire_size packet in
  let backlog = backlog_of dir ~now ~bandwidth:link.bandwidth in
  if (not link.up) || backlog + size > link.queue_capacity then begin
    dir.r_drops <- dir.r_drops + 1;
    false
  end
  else
    match link.impair with
    | None ->
        transmit link dir ~now ~backlog packet;
        true
    | Some impair -> (
        match Impair.apply impair packet with
        | None ->
            (* Lost on the wire: the sender saw a successful transmit. *)
            true
        | Some packet ->
            transmit link dir ~now ~backlog packet;
            true)

let backlog_bytes link endpoint =
  let dir = tx_direction link endpoint in
  backlog_of dir ~now:(Engine.now dir.d_tx_eng) ~bandwidth:link.bandwidth

let stat link endpoint = (tx_direction link endpoint).dir_stat
let drops link endpoint = (tx_direction link endpoint).r_drops
let latency link = link.latency

(* Partitioning seams — called single-threaded by the parallel driver
   before any domain is spawned. *)

let set_engines link ~a ~b =
  (* Direction a_to_b transmits at A's clock and delivers into B's ring. *)
  link.a_to_b.d_tx_eng <- a;
  link.a_to_b.d_ring_eng <- b;
  link.b_to_a.d_tx_eng <- b;
  link.b_to_a.d_ring_eng <- a

let set_conduit link ~from target =
  let dir = tx_direction link from in
  dir.d_out <- (match target with None -> Direct | Some push -> Conduit push)

let conduit_deliver link ~from ~at packet =
  let dir = tx_direction link from in
  Engine.push_delivery dir.d_ring_eng dir.delivery ~at packet
