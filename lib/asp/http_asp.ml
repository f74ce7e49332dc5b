module Node = Netsim.Node
module Packet = Netsim.Packet
module Payload = Netsim.Payload

(* ~21000 cycles on the paper's 170 MHz Ultra-1 — the kernel packet path
   plus header rewrite and connection lookup. The JIT-compiled ASP matches
   built-in C (the paper's central performance claim); interpretation pays
   the factors measured by the `perf` bench's same-run backend ratios. *)
let gateway_cost_compiled = 125e-6

let gateway_cost = function
  | "interp" -> gateway_cost_compiled *. 10.0
  | "bytecode" -> gateway_cost_compiled *. 2.0
  | _ -> gateway_cost_compiled

type strategy = Modulo | Source_hash | Weighted of int * int

let strategy_name = function
  | Modulo -> "modulo"
  | Source_hash -> "source-hash"
  | Weighted (a, b) -> Printf.sprintf "weighted %d:%d" a b

(* The body of pickServer(count, client) for each strategy. *)
let pick_body = function
  | Modulo -> "count mod 2"
  | Source_hash -> "(hostBits(client) + hostBits(client) / 256) mod 2"
  | Weighted (a, b) ->
      Printf.sprintf "if count mod %d < %d then 0 else 1" (a + b) a

let gateway_program ?(port = 80) ?(strategy = Modulo) ~vip
    ~servers:(server0, server1) () =
  Printf.sprintf
    {|-- Load-balancing HTTP gateway (paper Fig. 2), strategy: %s.
-- Requests addressed to the virtual server pick a physical server; the
-- connection table pins later packets of the same connection; responses
-- are rewritten back to the virtual address.
val virtualServer : host = %s
val server0 : host = %s
val server1 : host = %s
val httpPort : int = %d

fun pickServer(count : int, client : host) : int =
  %s

channel network(ps : int, ss : ((host*int), int) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let
    val iph : ip = #1 p
    val tcph : tcp = #2 p
    val body : blob = #3 p
  in
    if ipDst(iph) = virtualServer andalso tcpDst(tcph) = httpPort then
      -- incoming HTTP request
      let
        val conn : (host*int) = (ipSrc(iph), tcpSrc(tcph))
        val chosen : int =
          if tblMem(ss, conn) then tblGet(ss, conn, 0)
          else pickServer(ps, ipSrc(iph))
      in
        (tblSet(ss, conn, chosen);
         if chosen = 0 then
           OnRemote(network, (ipDestSet(iph, server0), tcph, body))
         else
           OnRemote(network, (ipDestSet(iph, server1), tcph, body));
         (ps + 1, ss))
      end
    else
      if tcpSrc(tcph) = httpPort
         andalso (ipSrc(iph) = server0 orelse ipSrc(iph) = server1) then
        -- response from a physical server: restore the virtual address
        (OnRemote(network, (ipSrcSet(iph, virtualServer), tcph, body));
         (ps, ss))
      else
        (OnRemote(network, p); (ps, ss))
  end
|}
    (strategy_name strategy) vip server0 server1 port (pick_body strategy)

let failover_gateway_program ?(port = 80) ~vip ~servers:(server0, server1) () =
  Printf.sprintf
    {|-- Fault-tolerant load-balancing gateway (paper 5 future work).
-- The protocol state is (health, count): health packs one up/down bit per
-- physical server; a health monitor flips bits through the "health"
-- channel. New connections avoid downed servers; connections pinned to a
-- server that has since died are re-routed to the survivor.
val virtualServer : host = %s
val server0 : host = %s
val server1 : host = %s
val httpPort : int = %d

protostate int*int = (3, 0)    -- both servers up, zero requests routed

fun up(health : int, index : int) : bool =
  if index = 0 then health mod 2 = 1 else health / 2 mod 2 = 1

fun pick(health : int, count : int, wanted : int) : int =
  if up(health, wanted) then wanted else
  if up(health, 1 - wanted) then 1 - wanted else wanted

-- Health updates: (server index, up?) on the tagged "health" channel.
channel health(ps : int*int, ss : int, p : ip*udp*int*bool) is
  let
    val health : int = #1 ps
    val index : int = #3 p
    val bit : int = if index = 0 then 1 else 2
    val cleared : int = health - (if up(health, index) then bit else 0)
    val updated : int = if #4 p then cleared + bit else cleared
  in
    (deliver(p); ((updated, #2 ps), ss))
  end

channel network(ps : int*int, ss : ((host*int), int) hash_table, p : ip*tcp*blob)
initstate mkTable(256) is
  let
    val health : int = #1 ps
    val count : int = #2 ps
    val iph : ip = #1 p
    val tcph : tcp = #2 p
    val body : blob = #3 p
  in
    if ipDst(iph) = virtualServer andalso tcpDst(tcph) = httpPort then
      let
        val conn : (host*int) = (ipSrc(iph), tcpSrc(tcph))
        val wanted : int =
          if tblMem(ss, conn) then tblGet(ss, conn, 0) else count mod 2
        val chosen : int = pick(health, count, wanted)
      in
        (tblSet(ss, conn, chosen);
         if chosen = 0 then
           OnRemote(network, (ipDestSet(iph, server0), tcph, body))
         else
           OnRemote(network, (ipDestSet(iph, server1), tcph, body));
         ((health, count + 1), ss))
      end
    else
      if tcpSrc(tcph) = httpPort
         andalso (ipSrc(iph) = server0 orelse ipSrc(iph) = server1) then
        (OnRemote(network, (ipSrcSet(iph, virtualServer), tcph, body));
         (ps, ss))
      else
        (OnRemote(network, p); (ps, ss))
  end
|}
    vip server0 server1 port

let health_packet ~gateway ~server_index ~up =
  let writer = Payload.Writer.create () in
  Payload.Writer.u32 writer server_index;
  Payload.Writer.u8 writer (if up then 1 else 0);
  Packet.udp ~chan_tag:"health" ~src:gateway ~dst:gateway ~src_port:0
    ~dst_port:0
    (Payload.Writer.finish writer)

let native_gateway ?(port = 80) ~vip ~servers:(server0, server1) () =
  let connections : (Netsim.Addr.t * int, int) Hashtbl.t = Hashtbl.create 256 in
  let request_count = ref 0 in
  let route packet =
    match packet.Packet.l4 with
    | Packet.Tcp tcp
      when Netsim.Addr.equal packet.Packet.dst vip && tcp.Packet.tcp_dst = port
      ->
        let conn = (packet.Packet.src, tcp.Packet.tcp_src) in
        let chosen =
          match Hashtbl.find_opt connections conn with
          | Some chosen -> chosen
          | None ->
              let chosen = !request_count mod 2 in
              Hashtbl.replace connections conn chosen;
              chosen
        in
        incr request_count;
        Some (Packet.with_dst packet (if chosen = 0 then server0 else server1))
    | Packet.Tcp tcp
      when tcp.Packet.tcp_src = port
           && (Netsim.Addr.equal packet.Packet.src server0
              || Netsim.Addr.equal packet.Packet.src server1) ->
        Some (Packet.with_src packet vip)
    | Packet.Tcp _ | Packet.Udp _ | Packet.Raw -> None
  in
  (route, request_count)

let install_native_gateway ?port node ~vip ~servers () =
  let route, request_count = native_gateway ?port ~vip ~servers () in
  Node.set_hook node (fun node ~ifindex ~l2_dst packet ->
      match route packet with
      | Some rewritten -> Node.forward node ~ifindex rewritten
      | None -> Node.default_process node ~ifindex ~l2_dst packet);
  request_count
