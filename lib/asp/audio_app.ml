module Node = Netsim.Node
module Engine = Netsim.Engine
module Audio_frame = Planp_runtime.Audio_frame

let audio_port = 5004
let group = Netsim.Addr.of_string "224.5.5.5"
let samples_per_frame frame_ms = int_of_float (44100.0 *. frame_ms /. 1000.0)

module Source = struct
  type t = {
    node : Node.t;
    grp : Netsim.Addr.t;
    port : int;
    frame_interval : float;
    frames : int;  (* samples per frame *)
    until : float;
    mutable seq : int;
  }

  let rec tick t () =
    let engine = Node.engine t.node in
    let now = Engine.now engine in
    if now < t.until then begin
      Node.send_udp t.node ~dst:t.grp ~src_port:audio_port ~dst_port:t.port
        (Audio_frame.Wire.synth ~seq:t.seq ~frames:t.frames
           ~phase:(t.seq * t.frames));
      t.seq <- t.seq + 1;
      Engine.schedule engine ~at:(now +. t.frame_interval) (tick t)
    end

  let start ?(group = group) ?(port = audio_port) ?(frame_ms = 20.0) node
      ~until () =
    let t =
      {
        node;
        grp = group;
        port;
        frame_interval = frame_ms /. 1000.0;
        frames = samples_per_frame frame_ms;
        until;
        seq = 0;
      }
    in
    Engine.schedule (Node.engine node) ~at:0.0 (tick t);
    t

  let frames_sent t = t.seq
end

module Client = struct
  type t = {
    node : Node.t;
    frame_interval : float;
    buffer : float;
    stat : Netsim.Flowstat.t;
    mutable received : int;
    mutable q_stereo16 : int;
    mutable q_mono16 : int;
    mutable q_mono8 : int;
    arrivals : float Netsim.Int_table.t;  (* seq -> arrival time *)
    mutable first_send_estimate : float option;
    mutable series : Netsim.Flowstat.Series.s option;
  }

  let on_packet t _node (packet : Netsim.Packet.t) =
    let now = Engine.now (Node.engine t.node) in
    match Audio_frame.Wire.header packet.Netsim.Packet.body with
    | None -> ()
    | Some { Audio_frame.Wire.seq; quality; _ } ->
        t.received <- t.received + 1;
        Netsim.Flowstat.record t.stat ~now (Netsim.Packet.wire_size packet);
        (match quality with
        | Audio_frame.Stereo16 -> t.q_stereo16 <- t.q_stereo16 + 1
        | Audio_frame.Mono16 -> t.q_mono16 <- t.q_mono16 + 1
        | Audio_frame.Mono8 -> t.q_mono8 <- t.q_mono8 + 1);
        if not (Netsim.Int_table.mem t.arrivals seq) then
          Netsim.Int_table.add t.arrivals seq now;
        (* Estimate the stream epoch from the earliest (arrival − seq·T). *)
        let epoch = now -. (float_of_int seq *. t.frame_interval) in
        (match t.first_send_estimate with
        | None -> t.first_send_estimate <- Some epoch
        | Some current ->
            if epoch < current then t.first_send_estimate <- Some epoch)

  let attach ?(group = group) ?(port = audio_port) ?(frame_ms = 20.0)
      ?(buffer_ms = 150.0) node () =
    let t =
      {
        node;
        frame_interval = frame_ms /. 1000.0;
        buffer = buffer_ms /. 1000.0;
        stat = Netsim.Flowstat.create ();
        received = 0;
        q_stereo16 = 0;
        q_mono16 = 0;
        q_mono8 = 0;
        arrivals = Netsim.Int_table.create 4096;
        first_send_estimate = None;
        series = None;
      }
    in
    Node.join_group node group;
    Node.on_udp node ~port (on_packet t);
    t

  let frames_received t = t.received
  let quality_counts t = (t.q_stereo16, t.q_mono16, t.q_mono8)

  let received_rate_series t ~period ~until =
    t.series <-
      Some (Netsim.Flowstat.Series.attach (Node.engine t.node) t.stat ~period ~until)

  let series_points t =
    match t.series with
    | Some series ->
        (* Convert bits/s to kB/s, the paper's Fig. 6 unit. *)
        List.map
          (fun (time, bps) -> (time, bps /. 8.0 /. 1000.0))
          (Netsim.Flowstat.Series.points series)
    | None -> []

  let silent_periods t ~frames_expected =
    let epoch = Option.value ~default:0.0 t.first_send_estimate in
    let silent_frames = ref 0 in
    let periods = ref 0 in
    let in_gap = ref false in
    for seq = 0 to frames_expected - 1 do
      let deadline = epoch +. t.buffer +. (float_of_int seq *. t.frame_interval) in
      let ok =
        match Netsim.Int_table.find_opt t.arrivals seq with
        | Some arrival -> arrival <= deadline
        | None -> false
      in
      if ok then in_gap := false
      else begin
        incr silent_frames;
        if not !in_gap then begin
          incr periods;
          in_gap := true
        end
      end
    done;
    (!periods, !silent_frames)
end
