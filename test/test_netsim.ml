(* Unit tests for the network simulator substrate. *)

module Sched = Netsim.Sched
module Engine = Netsim.Engine
module Addr = Netsim.Addr
module Payload = Netsim.Payload
module Packet = Netsim.Packet
module Flowstat = Netsim.Flowstat
module Link = Netsim.Link
module Segment = Netsim.Segment
module Node = Netsim.Node
module Routing = Netsim.Routing
module Topology = Netsim.Topology
module Multicast = Netsim.Multicast

let check = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ---------- sched (calendar queue) ---------- *)

let drain_sched sched =
  let cell = { Sched.v = neg_infinity } in
  let rec go acc =
    if Sched.is_empty sched then List.rev acc
    else
      let v = Sched.pop sched ~into:cell in
      go ((cell.Sched.v, v) :: acc)
  in
  go []

let sched_orders_by_time () =
  let sched = Sched.create ~dummy:0.0 () in
  List.iter (fun t -> Sched.add sched ~time:t t) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  check "size" 5 (Sched.size sched);
  let popped = drain_sched sched in
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.map fst popped);
  checkb "payload matches pop time" true
    (List.for_all (fun (t, v) -> t = v) popped)

let sched_fifo_on_ties () =
  let sched = Sched.create ~dummy:"" () in
  List.iter (fun v -> Sched.add sched ~time:1.0 v) [ "a"; "b"; "c" ];
  let cell = { Sched.v = 0.0 } in
  checks "first" "a" (Sched.pop sched ~into:cell);
  checks "second" "b" (Sched.pop sched ~into:cell);
  checks "third" "c" (Sched.pop sched ~into:cell)

let sched_stamped_keeps_position () =
  (* A seq reserved before later insertions keeps its FIFO rank even when
     the event itself is scheduled afterwards — the link-ring pattern, where
     a packet's stamp is reserved at push time but the scheduler entry is
     re-armed later from the ring head. *)
  let sched = Sched.create ~dummy:"" () in
  let early = Sched.fresh_seq sched in
  Sched.add sched ~time:1.0 "second";
  Sched.add_stamped sched ~time:1.0 ~seq:early "first";
  let cell = { Sched.v = 0.0 } in
  checks "stamped first" "first" (Sched.pop sched ~into:cell);
  checks "then plain" "second" (Sched.pop sched ~into:cell)

let sched_grows_and_clears () =
  let sched = Sched.create ~dummy:0 () in
  for i = 1000 downto 1 do
    Sched.add sched ~time:(float_of_int i) i
  done;
  check "size" 1000 (Sched.size sched);
  let cell = { Sched.v = 0.0 } in
  check "min" 1 (Sched.pop sched ~into:cell);
  Sched.clear sched;
  checkb "empty after clear" true (Sched.is_empty sched);
  (* slots are recycled through the free list, not leaked *)
  Sched.add sched ~time:2.5 7;
  check "usable after clear" 7 (Sched.pop sched ~into:cell);
  checkf "pop time" 2.5 cell.Sched.v

let sched_peek () =
  let sched = Sched.create ~dummy:() () in
  let cell = { Sched.v = neg_infinity } in
  checkb "empty" false (Sched.peek_time sched ~into:cell);
  checkf "cell untouched when empty" neg_infinity cell.Sched.v;
  Sched.add sched ~time:7.0 ();
  checkb "peek" true (Sched.peek_time sched ~into:cell);
  checkf "peek time" 7.0 cell.Sched.v;
  check "size unchanged by peek" 1 (Sched.size sched);
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Sched.pop: empty")
    (fun () ->
      Sched.clear sched;
      ignore (Sched.pop sched ~into:cell))

let sched_overflow_and_rotation () =
  (* 16 buckets x 1 ms puts the initial window end at 16 ms: events past
     it overflow into the heap while the wheel is busy, then migrate back
     as the wheel rolls or re-anchors — pop order must not care. *)
  let sched = Sched.create ~nbuckets:16 ~dummy:0.0 () in
  Sched.add sched ~time:0.0 0.0;
  List.iter (fun t -> Sched.add sched ~time:t t) [ 0.5; 0.25; 0.75 ];
  check "wheel holds the near event" 1 (Sched.wheel_length sched);
  check "far events overflow" 3 (Sched.overflow_length sched);
  Alcotest.(check (list (float 0.0)))
    "in order across the horizon"
    [ 0.0; 0.25; 0.5; 0.75 ]
    (List.map fst (drain_sched sched));
  (* A far-future add to an idle queue waits in the heap like any other
     insert past the window (an add no longer moves the wheel: anchoring it
     there clamped every earlier insert into one bucket); the pop that
     finds the wheel empty re-anchors it. *)
  Sched.add sched ~time:1000.0 1000.0;
  check "far add overflows" 1 (Sched.overflow_length sched);
  check "wheel still empty" 0 (Sched.wheel_length sched);
  Alcotest.(check (list (float 0.0)))
    "popped after re-anchoring" [ 1000.0 ]
    (List.map fst (drain_sched sched))

let sched_infinite_time () =
  (* An event at infinity cannot be placed in any bucket; it pops last
     (re-anchoring the wheel there raised index out of bounds). *)
  let sched = Sched.create ~dummy:0.0 () in
  List.iter (fun t -> Sched.add sched ~time:t t) [ 1.0; Float.infinity; 2.0 ];
  Alcotest.(check (list (float 0.0)))
    "finite first" [ 1.0; 2.0; Float.infinity ]
    (List.map fst (drain_sched sched))

(* The schedule shapes that used to defeat the width rule.  Each bounds the
   scheduler's work per pop: entries walked past by sorted inserts (at most
   2) and inserts sent to the overflow heap. *)

let check_sched_work name sched ~pops ~max_overflow_per_pop =
  let walks = Sched.walk_steps sched
  and overflows = Sched.overflow_inserts sched in
  if walks > 2 * pops then
    Alcotest.failf "%s: %d walk steps over %d pops (> 2 per pop)" name walks
      pops;
  if float_of_int overflows > max_overflow_per_pop *. float_of_int pops then
    Alcotest.failf "%s: %d overflow inserts over %d pops (> %g per pop)" name
      overflows pops max_overflow_per_pop

(* Hold model: each popped event is replaced by one due up to [spread]
   later, until the clock reaches [until]. *)
let hold sched rng ~until ~spread ~pops =
  let cell = { Sched.v = 0.0 } in
  let continue = ref true in
  while !continue && not (Sched.is_empty sched) do
    ignore (Sched.pop sched ~into:cell);
    incr pops;
    if cell.Sched.v < until then
      Sched.add sched ~time:(cell.Sched.v +. Random.State.float rng spread) 0
    else continue := false
  done

let sched_far_first_insert () =
  (* The run's first insert is due 10.48 s out (a scheduled crash) and
     reaches an idle queue; everything scheduled after it is due earlier. *)
  let sched = Sched.create ~dummy:0 () in
  let rng = Random.State.make [| 22 |] in
  Sched.add sched ~time:10.48 0;
  for i = 1 to 1000 do
    Sched.add sched ~time:(float_of_int i *. 1e-5) 0
  done;
  let pops = ref 0 in
  hold sched rng ~until:2.0 ~spread:0.05 ~pops;
  check_sched_work "far first insert" sched ~pops:!pops
    ~max_overflow_per_pop:0.01

let sched_bursts_after_quiet () =
  (* Ten bursts of dense, out-of-order traffic 100 ms long, each followed
     by a quiet stretch with one timer every 0.5 s: the gaps that blew up
     a width taken from the inter-pop gap EMA at the next rotation. *)
  let sched = Sched.create ~dummy:0 () in
  let rng = Random.State.make [| 7 |] in
  let pops = ref 0 in
  for burst = 0 to 9 do
    let start = float_of_int burst *. 2.0 in
    List.iter (fun d -> Sched.add sched ~time:(start +. d) 0) [ 0.6; 1.1; 1.6 ];
    for _ = 1 to 1000 do
      Sched.add sched ~time:(start +. Random.State.float rng 0.01) 0
    done;
    hold sched rng ~until:(start +. 0.1) ~spread:0.01 ~pops;
    let cell = { Sched.v = 0.0 } in
    while not (Sched.is_empty sched) do
      ignore (Sched.pop sched ~into:cell);
      incr pops
    done
  done;
  (* Each burst's first 1,000 events are added 0.4 s ahead, past a window
     fitted to the burst: about 0.05 overflow inserts per pop. *)
  check_sched_work "bursts after quiet" sched ~pops:!pops
    ~max_overflow_per_pop:0.1

let sched_fixed_hold () =
  (* 100 flows started 1 us apart, each re-scheduled one hop later.  At
     1.1024 ms this is the [bench scale] flow mesh, whose inserts all
     overflowed a wheel fitted to the 1 us gaps inside each cluster; a
     0.5 s hop starts past the default 256 ms window and must widen it. *)
  List.iter
    (fun hop ->
      let sched = Sched.create ~dummy:0 () in
      for i = 1 to 100 do
        Sched.add sched ~time:(float_of_int i *. 1e-6) 0
      done;
      let cell = { Sched.v = 0.0 } in
      let pops = 100_000 in
      for _ = 1 to pops do
        ignore (Sched.pop sched ~into:cell);
        Sched.add sched ~time:(cell.Sched.v +. hop) 0
      done;
      check_sched_work (Printf.sprintf "fixed hold %g s" hop) sched ~pops
        ~max_overflow_per_pop:0.01)
    [ 1.1024e-3; 0.5 ]

(* ---------- engine ---------- *)

let engine_runs_in_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule engine ~at:2.0 (fun () -> log := 2 :: !log);
  Engine.schedule engine ~at:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule engine ~at:3.0 (fun () -> log := 3 :: !log);
  Engine.run engine;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  checkf "clock at last event" 3.0 (Engine.now engine)

let engine_run_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule engine ~at:1.0 (fun () -> incr fired);
  Engine.schedule engine ~at:5.0 (fun () -> incr fired);
  Engine.run_until engine ~stop:2.0;
  check "only first" 1 !fired;
  checkf "clock moved to stop" 2.0 (Engine.now engine);
  check "second still queued" 1 (Engine.pending engine)

let engine_rejects_past () =
  let engine = Engine.create () in
  Engine.schedule engine ~at:5.0 (fun () -> ());
  Engine.run engine;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time 1 is before now (5)")
    (fun () -> Engine.schedule engine ~at:1.0 (fun () -> ()))

let engine_rejects_nan () =
  (* A NaN time compares false with everything: once accepted, it stalled
     every later event.  In both orders the finite events must fire and the
     NaN one be rejected. *)
  let rejects name f =
    match f () with
    | () -> Alcotest.failf "%s: NaN accepted" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun times ->
      let engine = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun at ->
          if Float.is_nan at then
            rejects "schedule" (fun () -> Engine.schedule engine ~at ignore)
          else Engine.schedule engine ~at (fun () -> fired := at :: !fired))
        times;
      Engine.run_until engine ~stop:10.0;
      Alcotest.(check (list (float 0.0)))
        "finite events fire" [ 1.0; 2.0 ] (List.rev !fired);
      check "nothing left pending" 0 (Engine.pending engine))
    [ [ 1.0; Float.nan; 2.0 ]; [ Float.nan; 1.0; 2.0 ] ];
  let engine = Engine.create () in
  rejects "schedule_after" (fun () ->
      Engine.schedule_after engine ~delay:Float.nan ignore);
  rejects "push_delivery" (fun () ->
      Engine.push_delivery engine (Engine.delivery ()) ~at:Float.nan
        (Packet.make ~src:Addr.broadcast ~dst:Addr.broadcast Packet.Raw
           Payload.empty));
  rejects "push_broadcast" (fun () ->
      Engine.push_broadcast engine (Engine.broadcast ()) ~at:Float.nan
        ~l2_dst:None ~from:0
        (Packet.make ~src:Addr.broadcast ~dst:Addr.broadcast Packet.Raw
           Payload.empty));
  check "nothing queued" 0 (Engine.pending engine)

let engine_delivery_ring () =
  (* The typed-event fast path: packets pushed into a delivery ring pop in
     FIFO order at their stamped times, and non-monotone arrivals are
     rejected (a link direction's finish times only move forward). *)
  let engine = Engine.create () in
  let d = Engine.delivery () in
  let got = ref [] in
  Engine.set_delivery_receiver d (fun p ->
      got := (Engine.now engine, p.Packet.uid) :: !got);
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  let p1 = Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 Payload.empty in
  let p2 = Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 Payload.empty in
  Engine.push_delivery engine d ~at:1.0 p1;
  Engine.push_delivery engine d ~at:2.0 p2;
  check "backlog" 2 (Engine.delivery_backlog d);
  check "ring residents count as pending" 2 (Engine.pending engine);
  Alcotest.check_raises "monotone arrivals enforced"
    (Invalid_argument "Engine.push_delivery: arrival times must be monotone")
    (fun () -> Engine.push_delivery engine d ~at:1.5 p1);
  Engine.run engine;
  match List.rev !got with
  | [ (t1, u1); (t2, u2) ] ->
      checkf "first at 1.0" 1.0 t1;
      checkf "second at 2.0" 2.0 t2;
      check "fifo" p1.Packet.uid u1;
      check "fifo 2" p2.Packet.uid u2
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

let engine_nested_scheduling () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then Engine.schedule_after engine ~delay:0.5 tick
  in
  Engine.schedule engine ~at:0.0 tick;
  Engine.run engine;
  check "all ticks" 10 !count;
  checkf "final clock" 4.5 (Engine.now engine)

(* ---------- addr ---------- *)

let addr_roundtrip () =
  List.iter
    (fun s -> checks s s (Addr.to_string (Addr.of_string s)))
    [ "0.0.0.0"; "131.254.60.81"; "255.255.255.255"; "10.0.0.1" ]

let addr_rejects_bad () =
  List.iter
    (fun s ->
      checkb s true (Option.is_none (Addr.of_string_opt s)))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d"; "1..2.3" ]

let addr_multicast_range () =
  checkb "224.0.0.0" true (Addr.is_multicast (Addr.of_string "224.0.0.0"));
  checkb "239.255.255.255" true (Addr.is_multicast (Addr.of_string "239.255.255.255"));
  checkb "223.255.255.255" false (Addr.is_multicast (Addr.of_string "223.255.255.255"));
  checkb "240.0.0.0" false (Addr.is_multicast (Addr.of_string "240.0.0.0"))

let addr_subnets () =
  let a = Addr.of_string "10.1.2.3" and b = Addr.of_string "10.1.9.9" in
  checkb "/16 same" true (Addr.same_subnet ~mask_bits:16 a b);
  checkb "/24 differs" false (Addr.same_subnet ~mask_bits:24 a b);
  checkb "/0 always" true (Addr.same_subnet ~mask_bits:0 a b)

(* ---------- payload ---------- *)

let payload_accessors () =
  let p = Payload.of_string "\x01\x02\x03\x04" in
  check "u8" 1 (Payload.get_u8 p 0);
  check "u16" 0x0102 (Payload.get_u16 p 0);
  check "u32" 0x01020304 (Payload.get_u32 p 0);
  Alcotest.check_raises "oob"
    (Invalid_argument "Payload.get_u32: offset 1 (width 4) out of bounds (len 4)")
    (fun () -> ignore (Payload.get_u32 p 1))

let payload_writer_reader () =
  let w = Payload.Writer.create () in
  Payload.Writer.u8 w 7;
  Payload.Writer.u16 w 600;
  Payload.Writer.u32 w 123456;
  Payload.Writer.string w "xyz";
  let p = Payload.Writer.finish w in
  check "length" 10 (Payload.length p);
  let r = Payload.Reader.create p in
  check "u8" 7 (Payload.Reader.u8 r);
  check "u16" 600 (Payload.Reader.u16 r);
  check "u32" 123456 (Payload.Reader.u32 r);
  checks "string" "xyz" (Payload.Reader.string r 3);
  check "remaining" 0 (Payload.Reader.remaining r)

let payload_sub_concat () =
  let p = Payload.of_string "hello world" in
  let sub = Payload.sub p ~pos:6 ~len:5 in
  checks "sub" "world" (Payload.to_string sub);
  checks "concat" "worldhello world"
    (Payload.to_string (Payload.concat [ sub; p ]));
  check "fill" 3 (Payload.length (Payload.fill 3 0xFF));
  check "fill byte" 0xFF (Payload.get_u8 (Payload.fill 3 0xFF) 2)

let payload_slice_of_slice () =
  (* Slices are views: a slice of a slice must address the right absolute
     bytes and report bounds relative to its own length. *)
  let p = Payload.of_string "abcdefghij" in
  let s1 = Payload.sub p ~pos:2 ~len:6 in
  let s2 = Payload.sub s1 ~pos:1 ~len:4 in
  checks "slice of slice" "defg" (Payload.to_string s2);
  check "slice u8" (Char.code 'e') (Payload.get_u8 s2 1);
  check "full-range sub is free" (Payload.length s2)
    (Payload.length (Payload.sub s2 ~pos:0 ~len:4));
  Alcotest.check_raises "slice-relative bounds"
    (Invalid_argument "Payload.get_u8: offset 4 (width 1) out of bounds (len 4)")
    (fun () -> ignore (Payload.get_u8 s2 4));
  Alcotest.check_raises "sub past end"
    (Invalid_argument "Payload.sub: offset 3 (width 2) out of bounds (len 4)")
    (fun () -> ignore (Payload.sub s2 ~pos:3 ~len:2))

(* Build the same byte sequence under several representations: flat,
   sliced, concatenated ropes of different shapes, and compacted. *)
let payload_representations s =
  let flat = Payload.of_string s in
  let n = String.length s in
  let padded =
    Payload.sub (Payload.of_string ("xx" ^ s ^ "yy")) ~pos:2 ~len:n
  in
  let split k =
    Payload.concat
      [ Payload.of_string (String.sub s 0 k);
        Payload.of_string (String.sub s k (n - k)) ]
  in
  let nested =
    Payload.concat
      [ Payload.sub flat ~pos:0 ~len:(n / 2); Payload.sub flat ~pos:(n / 2) ~len:(n - (n / 2)) ]
  in
  [ flat; padded; split 1; split (n - 1); nested;
    Payload.compact (Payload.sub (split 2) ~pos:0 ~len:n) ]

let payload_equal_pp_parity () =
  let s = "the quick brown fox" in
  let reprs = payload_representations s in
  List.iteri
    (fun i p ->
      checks (Printf.sprintf "repr %d bytes" i) s (Payload.to_string p);
      List.iteri
        (fun j q ->
          checkb (Printf.sprintf "equal %d %d" i j) true (Payload.equal p q);
          checks
            (Printf.sprintf "pp parity %d %d" i j)
            (Format.asprintf "%a" Payload.pp p)
            (Format.asprintf "%a" Payload.pp q))
        reprs)
    reprs;
  checkb "different lengths differ" false
    (Payload.equal (Payload.of_string "ab") (Payload.of_string "abc"));
  checkb "different bytes differ" false
    (Payload.equal (Payload.of_string "ab") (Payload.of_string "ac"))

let payload_reader_parity () =
  (* The Reader must decode identically from any representation. *)
  let w = Payload.Writer.create () in
  Payload.Writer.u8 w 9;
  Payload.Writer.u16 w 517;
  Payload.Writer.u32 w 0xdeadbeef;
  Payload.Writer.string w "tail";
  let s = Payload.to_string (Payload.Writer.finish w) in
  List.iter
    (fun p ->
      let r = Payload.Reader.create p in
      check "u8" 9 (Payload.Reader.u8 r);
      check "u16" 517 (Payload.Reader.u16 r);
      check "u32" 0xdeadbeef (Payload.Reader.u32 r);
      checks "rest" "tail" (Payload.to_string (Payload.Reader.rest r)))
    (payload_representations s)

let payload_writer_raw_rope () =
  (* Writer.raw walks a pending concatenation without flattening it. *)
  let rope =
    Payload.concat
      [ Payload.of_string "ab";
        Payload.concat [ Payload.of_string "cd"; Payload.of_string "ef" ];
        Payload.sub (Payload.of_string "xghx") ~pos:1 ~len:2 ]
  in
  let w = Payload.Writer.create () in
  Payload.Writer.raw w rope;
  checks "raw over rope" "abcdefgh" (Payload.to_string (Payload.Writer.finish w));
  (* compacting afterwards preserves contents and identity of bytes *)
  checks "compact" "abcdefgh" (Payload.to_string (Payload.compact rope))

(* ---------- packet ---------- *)

let packet_wire_size () =
  let body = Payload.fill 100 0 in
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  check "tcp" (20 + 20 + 100)
    (Packet.wire_size (Packet.tcp ~src ~dst ~src_port:1 ~dst_port:2 body));
  check "udp" (20 + 8 + 100)
    (Packet.wire_size (Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 body));
  check "raw" (20 + 100) (Packet.wire_size (Packet.make ~src ~dst Packet.Raw body))

let packet_ttl () =
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  let p = Packet.udp ~ttl:2 ~src ~dst ~src_port:1 ~dst_port:2 Payload.empty in
  let p1 = Option.get (Packet.decrement_ttl p) in
  check "ttl decremented" 1 p1.Packet.ttl;
  checkb "expires" true (Option.is_none (Packet.decrement_ttl p1))

let packet_rewrite_keeps_uid () =
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  let p = Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 Payload.empty in
  let p' = Packet.with_dst p (Addr.of_string "3.3.3.3") in
  check "same uid" p.Packet.uid p'.Packet.uid;
  let clone = Packet.clone p in
  checkb "clone differs" true (clone.Packet.uid <> p.Packet.uid)

(* ---------- flowstat ---------- *)

let flowstat_window () =
  let stat = Flowstat.create ~window:1.0 () in
  Flowstat.record stat ~now:0.0 1000;
  Flowstat.record stat ~now:0.5 1000;
  checkf "both in window" (16000.0) (Flowstat.rate_bps stat ~now:0.9);
  (* at t=1.4 the first sample (t=0) has left the window *)
  checkf "one expired" 8000.0 (Flowstat.rate_bps stat ~now:1.4);
  checkf "all expired" 0.0 (Flowstat.rate_bps stat ~now:3.0);
  check "totals unaffected" 2000 (Flowstat.total_bytes stat);
  check "packets" 2 (Flowstat.total_packets stat)

let flowstat_series () =
  let engine = Engine.create () in
  let stat = Flowstat.create ~window:1.0 () in
  let series = Flowstat.Series.attach engine stat ~period:1.0 ~until:3.0 in
  Engine.schedule engine ~at:0.5 (fun () -> Flowstat.record stat ~now:0.5 125);
  Engine.run_until engine ~stop:3.5;
  match Flowstat.Series.points series with
  | [ (t1, r1); (_, r2); (_, r3) ] ->
      checkf "t1" 1.0 t1;
      checkf "r1 = 1000 bps" 1000.0 r1;
      checkf "r2 expired" 0.0 r2;
      checkf "r3 expired" 0.0 r3
  | points -> Alcotest.failf "expected 3 points, got %d" (List.length points)

(* ---------- link ---------- *)

let link_timing () =
  let engine = Engine.create () in
  (* 8 kb/s: a 100-byte packet (+28 header = 128B) serializes in 0.128 s. *)
  let link = Link.create engine ~bandwidth_bps:8000.0 ~latency:0.1 () in
  let arrival = ref 0.0 in
  Link.set_receiver link Link.B (fun _ -> arrival := Engine.now engine);
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  let p = Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 (Payload.fill 100 0) in
  checkb "sent" true (Link.send link ~from:Link.A p);
  Engine.run engine;
  checkf "serialization + latency" 0.228 !arrival

let link_queue_drop () =
  let engine = Engine.create () in
  let link =
    Link.create ~queue_capacity:300 engine ~bandwidth_bps:8000.0 ~latency:0.0 ()
  in
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  let send () =
    Link.send link ~from:Link.A
      (Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 (Payload.fill 100 0))
  in
  checkb "1st fits" true (send ());
  checkb "2nd fits" true (send ());
  checkb "3rd dropped" false (send ());
  check "drop counted" 1 (Link.drops link Link.A);
  checkb "backlog positive" true (Link.backlog_bytes link Link.A > 0)

let link_full_duplex () =
  let engine = Engine.create () in
  let link = Link.create engine ~bandwidth_bps:1e6 ~latency:0.001 () in
  let got_a = ref 0 and got_b = ref 0 in
  Link.set_receiver link Link.A (fun _ -> incr got_a);
  Link.set_receiver link Link.B (fun _ -> incr got_b);
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  let p () = Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 Payload.empty in
  ignore (Link.send link ~from:Link.A (p ()));
  ignore (Link.send link ~from:Link.B (p ()));
  Engine.run engine;
  check "B received" 1 !got_b;
  check "A received" 1 !got_a

let link_burst_fifo () =
  (* Several packets in flight on one direction at once: the per-direction
     ring must deliver them in send order at the exact
     serialize-then-propagate times. 8 kb/s: each 128-byte frame
     serializes in 0.128 s. *)
  let engine = Engine.create () in
  let link = Link.create engine ~bandwidth_bps:8000.0 ~latency:0.1 () in
  let arrivals = ref [] in
  Link.set_receiver link Link.B (fun p ->
      match p.Packet.l4 with
      | Packet.Udp { Packet.udp_src; _ } ->
          arrivals := (Engine.now engine, udp_src) :: !arrivals
      | _ -> ());
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  for i = 1 to 3 do
    checkb "sent" true
      (Link.send link ~from:Link.A
         (Packet.udp ~src ~dst ~src_port:i ~dst_port:9 (Payload.fill 100 0)))
  done;
  checkb "backlog covers the queued frames" true
    (Link.backlog_bytes link Link.A >= 256);
  Engine.run engine;
  match List.rev !arrivals with
  | [ (t1, q1); (t2, q2); (t3, q3) ] ->
      check "send order 1" 1 q1;
      check "send order 2" 2 q2;
      check "send order 3" 3 q3;
      checkf "first arrival" 0.228 t1;
      checkf "second arrival" 0.356 t2;
      checkf "third arrival" 0.484 t3
  | l -> Alcotest.failf "expected 3 arrivals, got %d" (List.length l)

let link_metrics_flush () =
  (* Per-packet metrics are batched into raw counters and flushed when the
     engine goes idle: after a run the exported values must equal the raw
     counts exactly. *)
  let engine = Engine.create () in
  let link =
    Link.create ~name:"flush-probe" ~queue_capacity:300 engine
      ~bandwidth_bps:8000.0 ~latency:0.0 ()
  in
  Link.set_receiver link Link.B (fun _ -> ());
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  let send () =
    Link.send link ~from:Link.A
      (Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 (Payload.fill 100 0))
  in
  ignore (send ());
  ignore (send ());
  ignore (send ());
  (* third exceeds the 300-byte queue *)
  Engine.run engine;
  let labels = [ ("link", "flush-probe"); ("dir", "a_to_b") ] in
  check "packets flushed" 2
    (Obs.Registry.count (Obs.Registry.counter ~labels "netsim.link.tx_packets"));
  check "bytes flushed" 256
    (Obs.Registry.count (Obs.Registry.counter ~labels "netsim.link.tx_bytes"));
  check "drops flushed" 1
    (Obs.Registry.count (Obs.Registry.counter ~labels "netsim.link.drops"));
  check "one backlog sample per carried packet" 2
    (Obs.Registry.observations
       (Obs.Registry.histogram ~labels "netsim.link.backlog_bytes"))

(* ---------- segment ---------- *)

let segment_broadcasts () =
  let engine = Engine.create () in
  let seg = Segment.create engine ~bandwidth_bps:1e6 ~latency:0.001 () in
  let got = Array.make 3 0 in
  let stations =
    Array.init 3 (fun i ->
        Segment.attach seg (fun ~l2_dst:_ _ -> got.(i) <- got.(i) + 1))
  in
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  ignore
    (Segment.send seg ~from:stations.(0) ~l2_dst:None
       (Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 Payload.empty));
  Engine.run engine;
  check "sender excluded" 0 got.(0);
  check "station 1" 1 got.(1);
  check "station 2" 1 got.(2);
  check "stations" 3 (Segment.station_count seg)

let segment_tap_sees_carried_only () =
  let engine = Engine.create () in
  let seg =
    Segment.create ~queue_capacity:200 engine ~bandwidth_bps:8000.0
      ~latency:0.0 ()
  in
  let s0 = Segment.attach seg (fun ~l2_dst:_ _ -> ()) in
  ignore (Segment.attach seg (fun ~l2_dst:_ _ -> ()));
  let tapped = ref 0 in
  Segment.set_tap seg (fun ~at:_ ~l2_dst:_ _ -> incr tapped);
  let src = Addr.of_string "1.1.1.1" and dst = Addr.of_string "2.2.2.2" in
  let send () =
    Segment.send seg ~from:s0 ~l2_dst:None
      (Packet.udp ~src ~dst ~src_port:1 ~dst_port:2 (Payload.fill 100 0))
  in
  ignore (send ());
  ignore (send ());
  (* second one dropped: only 1 tap *)
  check "tap counts carried" 1 !tapped;
  check "drop" 1 (Segment.drops seg)

(* ---------- node + topology ---------- *)

let make_pair () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  ignore (Topology.connect topo a b);
  Topology.compute_routes topo;
  (topo, a, b)

let node_delivers_by_port () =
  let topo, a, b = make_pair () in
  let got_udp = ref 0 and got_tcp = ref 0 in
  Node.on_udp b ~port:53 (fun _ _ -> incr got_udp);
  Node.on_tcp b ~port:80 (fun _ _ -> incr got_tcp);
  Node.send_udp a ~dst:(Node.addr b) ~src_port:999 ~dst_port:53 Payload.empty;
  Node.send_tcp a ~dst:(Node.addr b) ~src_port:999 ~dst_port:80 Payload.empty;
  Node.send_udp a ~dst:(Node.addr b) ~src_port:999 ~dst_port:54 Payload.empty;
  Topology.run topo;
  check "udp" 1 !got_udp;
  check "tcp" 1 !got_tcp;
  check "unclaimed counted" 1 (Node.counters b).Node.dropped_unclaimed

let node_default_handler () =
  let topo, a, b = make_pair () in
  let got = ref 0 in
  Node.on_tcp_default b (fun _ _ -> incr got);
  Node.on_tcp b ~port:80 (fun _ _ -> ());
  Node.send_tcp a ~dst:(Node.addr b) ~src_port:1 ~dst_port:12345 Payload.empty;
  Node.send_tcp a ~dst:(Node.addr b) ~src_port:1 ~dst_port:80 Payload.empty;
  Topology.run topo;
  check "default only for unbound port" 1 !got

let forwarding_chain () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let r1 = Topology.add_host topo "r1" "10.0.0.2" in
  let r2 = Topology.add_host topo "r2" "10.0.0.3" in
  let b = Topology.add_host topo "b" "10.0.0.4" in
  ignore (Topology.connect topo a r1);
  ignore (Topology.connect topo r1 r2);
  ignore (Topology.connect topo r2 b);
  Topology.compute_routes topo;
  let got = ref None in
  Node.on_udp b ~port:7 (fun _ p -> got := Some p);
  Node.send_udp a ~dst:(Node.addr b) ~src_port:7 ~dst_port:7 Payload.empty;
  Topology.run topo;
  (match !got with
  | Some p -> check "ttl decremented twice" 62 p.Packet.ttl
  | None -> Alcotest.fail "not delivered");
  check "r1 forwarded" 1 (Node.counters r1).Node.forwarded;
  check "r2 forwarded" 1 (Node.counters r2).Node.forwarded

let ttl_expiry_drops () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let r = Topology.add_host topo "r" "10.0.0.2" in
  let b = Topology.add_host topo "b" "10.0.0.3" in
  ignore (Topology.connect topo a r);
  ignore (Topology.connect topo r b);
  Topology.compute_routes topo;
  let got = ref 0 in
  Node.on_udp b ~port:7 (fun _ _ -> incr got);
  Node.originate a
    (Packet.udp ~ttl:1 ~src:(Node.addr a) ~dst:(Node.addr b) ~src_port:7
       ~dst_port:7 Payload.empty);
  Topology.run topo;
  check "dropped at router" 0 !got;
  check "ttl drop counted" 1 (Node.counters r).Node.dropped_ttl

let segment_l2_filter_and_promisc () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let c = Topology.add_host topo "c" "10.0.0.3" in
  let seg = Topology.segment topo () in
  ignore (Topology.attach topo seg a);
  ignore (Topology.attach topo seg b);
  ignore (Topology.attach topo seg c);
  Topology.compute_routes topo;
  let seen_by_c = ref 0 in
  Node.set_promiscuous c true;
  Node.set_hook c (fun node ~ifindex ~l2_dst packet ->
      incr seen_by_c;
      Node.default_process node ~ifindex ~l2_dst packet);
  let got_b = ref 0 in
  Node.on_udp b ~port:7 (fun _ _ -> incr got_b);
  Node.send_udp a ~dst:(Node.addr b) ~src_port:7 ~dst_port:7 Payload.empty;
  Topology.run topo;
  check "b received" 1 !got_b;
  check "c sniffed the frame" 1 !seen_by_c;
  (* c's default processing filters the foreign frame *)
  check "c filtered it" 1 (Node.counters c).Node.dropped_filtered

let multicast_delivery_through_router () =
  let topo = Topology.create () in
  let source = Topology.add_host topo "src" "10.0.0.1" in
  let router = Topology.add_host topo "r" "10.0.0.2" in
  let m1 = Topology.add_host topo "m1" "10.0.1.1" in
  let m2 = Topology.add_host topo "m2" "10.0.1.2" in
  let outsider = Topology.add_host topo "x" "10.0.1.3" in
  ignore (Topology.connect topo source router);
  let seg = Topology.segment topo () in
  ignore (Topology.attach topo seg router);
  ignore (Topology.attach topo seg m1);
  ignore (Topology.attach topo seg m2);
  ignore (Topology.attach topo seg outsider);
  Topology.compute_routes topo;
  let group = Addr.of_string "224.1.1.1" in
  Node.join_group m1 group;
  Node.join_group m2 group;
  let got = Array.make 3 0 in
  Node.on_udp m1 ~port:7 (fun _ _ -> got.(0) <- got.(0) + 1);
  Node.on_udp m2 ~port:7 (fun _ _ -> got.(1) <- got.(1) + 1);
  Node.on_udp outsider ~port:7 (fun _ _ -> got.(2) <- got.(2) + 1);
  Node.send_udp source ~dst:group ~src_port:7 ~dst_port:7 Payload.empty;
  Topology.run topo;
  check "member 1" 1 got.(0);
  check "member 2" 1 got.(1);
  check "outsider filtered" 0 got.(2)

let cpu_cost_serializes () =
  let topo, a, b = make_pair () in
  Node.set_processing_cost b 0.1;
  let timestamps = ref [] in
  Node.on_udp b ~port:7 (fun node _ ->
      timestamps := Engine.now (Node.engine node) :: !timestamps);
  for _ = 1 to 3 do
    Node.send_udp a ~dst:(Node.addr b) ~src_port:7 ~dst_port:7 Payload.empty
  done;
  Topology.run topo;
  match List.rev !timestamps with
  | [ t1; t2; t3 ] ->
      checkb "spaced by cpu cost" true (t2 -. t1 > 0.099 && t3 -. t2 > 0.099)
  | l -> Alcotest.failf "expected 3 deliveries, got %d" (List.length l)

let routing_default_route () =
  let table = Routing.create () in
  let dst = Addr.of_string "9.9.9.9" in
  checkb "miss" true (Option.is_none (Routing.lookup table dst));
  Routing.set_default table (Some { Routing.ifindex = 1; next_hop = None });
  (match Routing.lookup table dst with
  | Some { Routing.ifindex; _ } -> check "default used" 1 ifindex
  | None -> Alcotest.fail "default not used");
  Routing.add_host table dst { Routing.ifindex = 2; next_hop = None };
  match Routing.lookup table dst with
  | Some { Routing.ifindex; _ } -> check "host route wins" 2 ifindex
  | None -> Alcotest.fail "host route missing"

let multicast_registry () =
  let registry = Multicast.create () in
  let group = Addr.of_string "224.0.0.9" in
  let a = Addr.of_string "1.1.1.1" and b = Addr.of_string "2.2.2.2" in
  Multicast.join registry ~group a;
  Multicast.join registry ~group b;
  Multicast.join registry ~group a;
  check "members deduped" 2 (List.length (Multicast.members registry ~group));
  Multicast.leave registry ~group a;
  checkb "a gone" false (Multicast.is_member registry ~group a);
  Multicast.leave registry ~group b;
  check "group removed" 0 (List.length (Multicast.groups registry));
  Alcotest.check_raises "non class-D"
    (Invalid_argument "Multicast: 10.0.0.1 is not a class-D address")
    (fun () -> Multicast.join registry ~group:(Addr.of_string "10.0.0.1") a)

(* ---------- tracer ---------- *)

let tracer_captures_segment () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let seg = Topology.segment topo () in
  ignore (Topology.attach topo seg a);
  ignore (Topology.attach topo seg b);
  Topology.compute_routes topo;
  let tracer = Netsim.Tracer.on_segment seg () in
  Node.on_udp b ~port:53 (fun _ _ -> ());
  Node.send_udp a ~dst:(Node.addr b) ~src_port:1111 ~dst_port:53 (Payload.fill 10 0);
  Node.send_tcp a ~dst:(Node.addr b) ~src_port:2222 ~dst_port:80 Payload.empty;
  Topology.run topo;
  check "two records" 2 (Netsim.Tracer.count tracer);
  check "one udp to 53" 1
    (List.length (Netsim.Tracer.filter tracer ~f:(Netsim.Tracer.udp_to_port 53)));
  check "udp bytes" 38
    (Netsim.Tracer.bytes tracer ~f:(Netsim.Tracer.udp_to_port 53));
  check "between a and b" 2
    (List.length
       (Netsim.Tracer.filter tracer
          ~f:(Netsim.Tracer.between (Node.addr a) (Node.addr b))));
  let dump = Netsim.Tracer.dump tracer in
  checkb "dump mentions port 53" true
    (let rec has i =
       i + 3 <= String.length dump && (String.sub dump i 3 = ":53" || has (i + 1))
     in
     has 0);
  Netsim.Tracer.clear tracer;
  check "cleared" 0 (Netsim.Tracer.count tracer)

let tracer_caps_records () =
  let tracer = Netsim.Tracer.create ~limit:3 () in
  for i = 1 to 5 do
    Netsim.Tracer.record_packet tracer ~at:(float_of_int i) ~l2_dst:None
      (Packet.udp ~src:1 ~dst:2 ~src_port:i ~dst_port:9 Payload.empty)
  done;
  check "capped" 3 (Netsim.Tracer.count tracer);
  check "evictions" 2 (Netsim.Tracer.dropped tracer);
  match Netsim.Tracer.records tracer with
  | first :: _ -> check "oldest kept is #3" 3 first.Netsim.Tracer.src_port
  | [] -> Alcotest.fail "no records"

(* ---------- link failure ---------- *)

let link_failure_and_recovery () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let link = Topology.connect topo a b in
  Topology.compute_routes topo;
  let got = ref 0 in
  Node.on_udp b ~port:7 (fun _ _ -> incr got);
  let send () =
    Node.send_udp a ~dst:(Node.addr b) ~src_port:7 ~dst_port:7 Payload.empty
  in
  send ();
  Topology.run topo;
  check "up: delivered" 1 !got;
  Netsim.Link.set_up link false;
  checkb "reports down" false (Netsim.Link.is_up link);
  send ();
  Topology.run topo;
  check "down: dropped" 1 !got;
  check "drop counted" 1 (Netsim.Link.drops link Netsim.Link.A);
  Netsim.Link.set_up link true;
  send ();
  Topology.run topo;
  check "recovered" 2 !got

(* ---------- summary ---------- *)

let summary_statistics () =
  let s = Netsim.Summary.create () in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Netsim.Summary.mean s);
  List.iter (Netsim.Summary.add s) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  check "count" 5 (Netsim.Summary.count s);
  checkf "mean" 3.0 (Netsim.Summary.mean s);
  checkf "min" 1.0 (Netsim.Summary.min s);
  checkf "max" 5.0 (Netsim.Summary.max s);
  checkf "p50" 3.0 (Netsim.Summary.percentile s 50.0);
  checkf "p100" 5.0 (Netsim.Summary.percentile s 100.0);
  checkf "p1" 1.0 (Netsim.Summary.percentile s 1.0);
  (* adding after a sorted query must still work *)
  Netsim.Summary.add s 10.0;
  checkf "max after add" 10.0 (Netsim.Summary.max s);
  Alcotest.check_raises "bad percentile"
    (Invalid_argument "Summary.percentile: p outside [0, 100]") (fun () ->
      ignore (Netsim.Summary.percentile s 150.0))

let summary_percentile_reference () =
  (* Nearest rank against a fully sorted copy, on tie-heavy, ascending,
     descending and constant samples, n = 1 included. *)
  let rng = Random.State.make [| 5 |] in
  let reference samples p =
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  in
  let shapes n =
    [ ("ties", List.init n (fun _ -> float_of_int (Random.State.int rng 20) /. 4.0));
      ("ascending", List.init n float_of_int);
      ("descending", List.init n (fun i -> float_of_int (n - i)));
      ("constant", List.init n (fun _ -> 2.5)) ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (shape, samples) ->
          let s = Netsim.Summary.create () in
          List.iter (Netsim.Summary.add s) samples;
          List.iter
            (fun p ->
              checkf
                (Printf.sprintf "%s n=%d p%g" shape n p)
                (reference samples p)
                (Netsim.Summary.percentile s p))
            [ 0.0; 1.0; 25.0; 50.0; 95.0; 99.9; 100.0 ];
          checkf (Printf.sprintf "%s n=%d min" shape n) (reference samples 0.0)
            (Netsim.Summary.min s);
          checkf (Printf.sprintf "%s n=%d max" shape n) (reference samples 100.0)
            (Netsim.Summary.max s);
          check (Printf.sprintf "%s n=%d count kept" shape n) n
            (Netsim.Summary.count s))
        (shapes n))
    [ 1; 2; 3; 7; 100; 5000 ]

let summary_merge () =
  let a = Netsim.Summary.create () and b = Netsim.Summary.create () in
  List.iter (Netsim.Summary.add a) [ 1.0; 2.0 ];
  List.iter (Netsim.Summary.add b) [ 3.0; 4.0 ];
  Netsim.Summary.merge ~into:a b;
  check "merged count" 4 (Netsim.Summary.count a);
  checkf "merged mean" 2.5 (Netsim.Summary.mean a)

(* ---------- reliable transport ---------- *)

let reliable_in_order_delivery () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  ignore (Topology.connect topo a b);
  Topology.compute_routes topo;
  let received = ref [] in
  let _rx =
    Netsim.Reliable.Receiver.listen b ~port:7000
      ~on_message:(fun m -> received := Payload.to_string m :: !received)
      ()
  in
  let tx =
    Netsim.Reliable.Sender.connect a ~dst:(Node.addr b) ~dst_port:7000
      ~src_port:7001 ()
  in
  for i = 1 to 50 do
    Netsim.Reliable.Sender.send tx (Payload.of_string (string_of_int i))
  done;
  Topology.run topo;
  Alcotest.(check (list string))
    "all in order"
    (List.init 50 (fun i -> string_of_int (i + 1)))
    (List.rev !received);
  check "all acked" 49 (Netsim.Reliable.Sender.acked tx);
  check "nothing unacked" 0 (Netsim.Reliable.Sender.unacked tx);
  check "no retransmissions on a clean link" 0
    (Netsim.Reliable.Sender.retransmissions tx)

let reliable_survives_outage () =
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let link = Topology.connect topo a b in
  Topology.compute_routes topo;
  let received = ref 0 in
  let rx =
    Netsim.Reliable.Receiver.listen b ~port:7000
      ~on_message:(fun _ -> incr received)
      ()
  in
  let tx =
    Netsim.Reliable.Sender.connect a ~dst:(Node.addr b) ~dst_port:7000
      ~src_port:7001 ()
  in
  let engine = Topology.engine topo in
  (* Send a burst, cut the cable mid-flight, restore it later. *)
  Engine.schedule engine ~at:0.0 (fun () ->
      for i = 1 to 40 do
        Netsim.Reliable.Sender.send tx (Payload.of_string (string_of_int i))
      done);
  Engine.schedule engine ~at:0.001 (fun () -> Netsim.Link.set_up link false);
  Engine.schedule engine ~at:1.5 (fun () -> Netsim.Link.set_up link true);
  Topology.run_until topo ~stop:30.0;
  check "all 40 delivered" 40 !received;
  check "exactly once" 40 (Netsim.Reliable.Receiver.delivered rx);
  checkb "outage forced retransmissions" true
    (Netsim.Reliable.Sender.retransmissions tx > 0);
  check "all acked" 39 (Netsim.Reliable.Sender.acked tx)

let reliable_dedups () =
  (* Lose only ACKs: the receiver sees duplicates and must drop them. *)
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  ignore (Topology.connect topo a b);
  Topology.compute_routes topo;
  (* Swallow the first ACK by hooking b's... simpler: hook a to drop the
     first ACK it would receive. *)
  let dropped_one = ref false in
  Node.set_hook a (fun node ~ifindex ~l2_dst packet ->
      match packet.Packet.l4 with
      | Packet.Udp _ when not !dropped_one ->
          dropped_one := true (* swallow *)
      | _ -> Node.default_process node ~ifindex ~l2_dst packet);
  let received = ref 0 in
  let rx =
    Netsim.Reliable.Receiver.listen b ~port:7000
      ~on_message:(fun _ -> incr received)
      ()
  in
  let tx =
    Netsim.Reliable.Sender.connect a ~dst:(Node.addr b) ~dst_port:7000
      ~src_port:7001 ()
  in
  Netsim.Reliable.Sender.send tx (Payload.of_string "only");
  Topology.run_until topo ~stop:10.0;
  check "delivered once" 1 !received;
  checkb "duplicate discarded" true (Netsim.Reliable.Receiver.duplicates rx > 0)

let reliable_concurrent_streams () =
  (* Two independent streams share one link (distinct port pairs); each
     must deliver its own messages in order, exactly once, with no
     cross-talk — the deployment plane runs its capsule and reply streams
     over shared links exactly like this. *)
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  ignore (Topology.connect topo a b);
  Topology.compute_routes topo;
  let got1 = ref [] and got2 = ref [] in
  let rx1 =
    Netsim.Reliable.Receiver.listen b ~port:7000
      ~on_message:(fun m -> got1 := Payload.to_string m :: !got1)
      ()
  in
  let rx2 =
    Netsim.Reliable.Receiver.listen b ~port:7100
      ~on_message:(fun m -> got2 := Payload.to_string m :: !got2)
      ()
  in
  let tx1 =
    Netsim.Reliable.Sender.connect a ~dst:(Node.addr b) ~dst_port:7000
      ~src_port:7001 ()
  in
  let tx2 =
    Netsim.Reliable.Sender.connect a ~dst:(Node.addr b) ~dst_port:7100
      ~src_port:7101 ()
  in
  (* interleave the sends *)
  for i = 1 to 30 do
    Netsim.Reliable.Sender.send tx1 (Payload.of_string (Printf.sprintf "s1-%d" i));
    Netsim.Reliable.Sender.send tx2 (Payload.of_string (Printf.sprintf "s2-%d" i))
  done;
  Topology.run topo;
  Alcotest.(check (list string))
    "stream 1 in order, nothing from stream 2"
    (List.init 30 (fun i -> Printf.sprintf "s1-%d" (i + 1)))
    (List.rev !got1);
  Alcotest.(check (list string))
    "stream 2 in order, nothing from stream 1"
    (List.init 30 (fun i -> Printf.sprintf "s2-%d" (i + 1)))
    (List.rev !got2);
  check "stream 1 exactly once" 30 (Netsim.Reliable.Receiver.delivered rx1);
  check "stream 2 exactly once" 30 (Netsim.Reliable.Receiver.delivered rx2);
  check "clean link: no retransmissions on either stream" 0
    (Netsim.Reliable.Sender.retransmissions tx1
    + Netsim.Reliable.Sender.retransmissions tx2)

let reliable_two_senders_one_port () =
  (* Two senders converge on ONE receiver port, the shape of two
     controllers addressing the same deploy daemon. The receiver must
     demultiplex by (source address, source port): the second sender's
     stream also starts at seq 0, and before per-peer sequence spaces its
     messages were counted as duplicates of the first stream's progress,
     cumulatively acked, and never delivered. *)
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let c = Topology.add_host topo "c" "10.0.0.2" in
  let b = Topology.add_host topo "b" "10.0.0.3" in
  ignore (Topology.connect topo a b);
  ignore (Topology.connect topo c b);
  Topology.compute_routes topo;
  let got = ref [] in
  let rx =
    Netsim.Reliable.Receiver.listen b ~port:7000
      ~on_message:(fun m -> got := Payload.to_string m :: !got)
      ()
  in
  let tx1 =
    Netsim.Reliable.Sender.connect a ~dst:(Node.addr b) ~dst_port:7000
      ~src_port:7001 ()
  in
  (* The first stream makes progress before the second even connects. *)
  for i = 1 to 20 do
    Netsim.Reliable.Sender.send tx1 (Payload.of_string (Printf.sprintf "s1-%d" i))
  done;
  Topology.run topo;
  let tx2 =
    Netsim.Reliable.Sender.connect c ~dst:(Node.addr b) ~dst_port:7000
      ~src_port:7001 ()
    (* same source port as tx1 on purpose: only the address differs *)
  in
  for i = 1 to 20 do
    Netsim.Reliable.Sender.send tx2 (Payload.of_string (Printf.sprintf "s2-%d" i))
  done;
  Topology.run topo;
  let s2 = List.filter (fun m -> String.length m > 1 && m.[1] = '2') !got in
  Alcotest.(check (list string))
    "late stream delivered in order, exactly once"
    (List.init 20 (fun i -> Printf.sprintf "s2-%d" (i + 1)))
    (List.rev s2);
  check "both streams delivered in full" 40
    (Netsim.Reliable.Receiver.delivered rx);
  check "clean links: nothing misread as a duplicate" 0
    (Netsim.Reliable.Receiver.duplicates rx)

let reliable_flap_mid_window () =
  (* The link goes down while a window is partially acknowledged and comes
     back: delivery must stay exactly-once and in-order, and the
     retransmissions must stay bounded (go-back-N resends at most one
     window per RTO while the link is dark). *)
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" "10.0.0.1" in
  let b = Topology.add_host topo "b" "10.0.0.2" in
  let link = Topology.connect topo a b in
  Topology.compute_routes topo;
  let got = ref [] in
  let rx =
    Netsim.Reliable.Receiver.listen b ~port:7000
      ~on_message:(fun m -> got := Payload.to_string m :: !got)
      ()
  in
  let window = 8 and rto = 0.2 in
  let tx =
    Netsim.Reliable.Sender.connect ~window ~rto a ~dst:(Node.addr b)
      ~dst_port:7000 ~src_port:7001 ()
  in
  let engine = Topology.engine topo in
  let n = 24 in
  Engine.schedule engine ~at:0.0 (fun () ->
      for i = 1 to n do
        Netsim.Reliable.Sender.send tx (Payload.of_string (string_of_int i))
      done);
  (* first messages of the window get through and are acked; then dark *)
  let outage = 2.0 in
  Engine.schedule engine ~at:0.0035 (fun () -> Netsim.Link.set_up link false);
  Engine.schedule engine ~at:(0.0035 +. outage) (fun () ->
      Netsim.Link.set_up link true);
  Topology.run_until topo ~stop:30.0;
  Alcotest.(check (list string))
    "in order, exactly once"
    (List.init n (fun i -> string_of_int (i + 1)))
    (List.rev !got);
  check "exactly once" n (Netsim.Reliable.Receiver.delivered rx);
  check "all acked" (n - 1) (Netsim.Reliable.Sender.acked tx);
  let retx = Netsim.Reliable.Sender.retransmissions tx in
  checkb "outage forced retransmissions" true (retx > 0);
  (* bound: one window per RTO while dark, plus slack for recovery *)
  let bound =
    (int_of_float (outage /. rto) + 2) * window
  in
  checkb
    (Printf.sprintf "retransmissions bounded (%d <= %d)" retx bound)
    true (retx <= bound)

let topology_rejects_duplicates () =
  let topo = Topology.create () in
  ignore (Topology.add_host topo "a" "10.0.0.1");
  Alcotest.check_raises "dup name"
    (Invalid_argument "Topology.add_node: duplicate name a") (fun () ->
      ignore (Topology.add_host topo "a" "10.0.0.2"));
  Alcotest.check_raises "dup addr"
    (Invalid_argument "Topology.add_node: duplicate address 10.0.0.1")
    (fun () -> ignore (Topology.add_host topo "b" "10.0.0.1"))

let () =
  Alcotest.run "netsim"
    [
      ( "sched",
        [
          Alcotest.test_case "orders by time" `Quick sched_orders_by_time;
          Alcotest.test_case "fifo on ties" `Quick sched_fifo_on_ties;
          Alcotest.test_case "stamped seq keeps position" `Quick
            sched_stamped_keeps_position;
          Alcotest.test_case "grows and clears" `Quick sched_grows_and_clears;
          Alcotest.test_case "peek" `Quick sched_peek;
          Alcotest.test_case "overflow and rotation" `Quick
            sched_overflow_and_rotation;
          Alcotest.test_case "infinite time" `Quick sched_infinite_time;
          Alcotest.test_case "far first insert" `Quick sched_far_first_insert;
          Alcotest.test_case "bursts after quiet" `Quick
            sched_bursts_after_quiet;
          Alcotest.test_case "fixed hold" `Quick sched_fixed_hold;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick engine_runs_in_order;
          Alcotest.test_case "run_until" `Quick engine_run_until;
          Alcotest.test_case "rejects past" `Quick engine_rejects_past;
          Alcotest.test_case "rejects nan" `Quick engine_rejects_nan;
          Alcotest.test_case "delivery ring" `Quick engine_delivery_ring;
          Alcotest.test_case "nested scheduling" `Quick engine_nested_scheduling;
        ] );
      ( "addr",
        [
          Alcotest.test_case "roundtrip" `Quick addr_roundtrip;
          Alcotest.test_case "rejects bad" `Quick addr_rejects_bad;
          Alcotest.test_case "multicast range" `Quick addr_multicast_range;
          Alcotest.test_case "subnets" `Quick addr_subnets;
        ] );
      ( "payload",
        [
          Alcotest.test_case "accessors" `Quick payload_accessors;
          Alcotest.test_case "writer/reader" `Quick payload_writer_reader;
          Alcotest.test_case "sub/concat/fill" `Quick payload_sub_concat;
          Alcotest.test_case "slice of slice" `Quick payload_slice_of_slice;
          Alcotest.test_case "equal/pp across representations" `Quick
            payload_equal_pp_parity;
          Alcotest.test_case "reader parity" `Quick payload_reader_parity;
          Alcotest.test_case "writer raw over ropes" `Quick
            payload_writer_raw_rope;
        ] );
      ( "packet",
        [
          Alcotest.test_case "wire size" `Quick packet_wire_size;
          Alcotest.test_case "ttl" `Quick packet_ttl;
          Alcotest.test_case "rewrite keeps uid" `Quick packet_rewrite_keeps_uid;
        ] );
      ( "flowstat",
        [
          Alcotest.test_case "window" `Quick flowstat_window;
          Alcotest.test_case "series" `Quick flowstat_series;
        ] );
      ( "link",
        [
          Alcotest.test_case "timing" `Quick link_timing;
          Alcotest.test_case "queue drop" `Quick link_queue_drop;
          Alcotest.test_case "full duplex" `Quick link_full_duplex;
          Alcotest.test_case "burst fifo" `Quick link_burst_fifo;
          Alcotest.test_case "metrics flush" `Quick link_metrics_flush;
        ] );
      ( "segment",
        [
          Alcotest.test_case "broadcasts" `Quick segment_broadcasts;
          Alcotest.test_case "tap sees carried only" `Quick
            segment_tap_sees_carried_only;
        ] );
      ( "node",
        [
          Alcotest.test_case "delivers by port" `Quick node_delivers_by_port;
          Alcotest.test_case "default handler" `Quick node_default_handler;
          Alcotest.test_case "forwarding chain" `Quick forwarding_chain;
          Alcotest.test_case "ttl expiry" `Quick ttl_expiry_drops;
          Alcotest.test_case "l2 filter + promiscuous" `Quick
            segment_l2_filter_and_promisc;
          Alcotest.test_case "multicast via router" `Quick
            multicast_delivery_through_router;
          Alcotest.test_case "cpu cost serializes" `Quick cpu_cost_serializes;
        ] );
      ( "routing",
        [
          Alcotest.test_case "default route" `Quick routing_default_route;
          Alcotest.test_case "multicast registry" `Quick multicast_registry;
          Alcotest.test_case "topology rejects duplicates" `Quick
            topology_rejects_duplicates;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "captures segment" `Quick tracer_captures_segment;
          Alcotest.test_case "caps records" `Quick tracer_caps_records;
        ] );
      ( "faults",
        [ Alcotest.test_case "link failure and recovery" `Quick
            link_failure_and_recovery ] );
      ( "summary",
        [
          Alcotest.test_case "statistics" `Quick summary_statistics;
          Alcotest.test_case "merge" `Quick summary_merge;
          Alcotest.test_case "percentile matches sorted reference" `Quick
            summary_percentile_reference;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "in-order delivery" `Quick reliable_in_order_delivery;
          Alcotest.test_case "survives outage" `Quick reliable_survives_outage;
          Alcotest.test_case "dedups on lost acks" `Quick reliable_dedups;
          Alcotest.test_case "concurrent streams share a link" `Quick
            reliable_concurrent_streams;
          Alcotest.test_case "two senders, one port" `Quick
            reliable_two_senders_one_port;
          Alcotest.test_case "flap mid-window" `Quick reliable_flap_mid_window;
        ] );
    ]
