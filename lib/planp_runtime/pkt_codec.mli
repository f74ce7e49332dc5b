(** Conversion between {!Netsim.Packet.t} and typed PLAN-P packet values.

    A channel's packet type is a tuple [ip * transport? * payload-components].
    The payload components describe a binary layout of the packet body:

    - [char], [bool]: 1 byte;
    - [int], [host]: 4 bytes big-endian;
    - [string]: 2-byte length prefix + bytes;
    - [blob]: all remaining bytes (hence only valid as the last component).

    Decoding succeeds only when the body matches the layout *exactly* — this
    is what disambiguates the paper's overloaded channels (Fig. 4): an
    [ip*tcp*char*int] channel accepts 5-byte bodies, [ip*tcp*char*bool]
    2-byte bodies. *)

(** [decoder pkt_type] is a decoder for one packet type, built once: it
    splits the type into transport and payload layout when applied to
    [pkt_type], and each call on a packet then checks the transport,
    reads the body against the layout and fills the packet tuple's array
    directly. A call is [Some] the packet value, or [None] when the packet
    does not have the declared shape. {!Runtime.install} builds one per
    channel. *)
val decoder : Planp.Ptype.t -> Netsim.Packet.t -> Value.t option

(** [decode pkt_type packet] is [decoder pkt_type packet]: for one-off
    decodes; a caller with many packets of one type keeps the decoder. *)
val decode : Planp.Ptype.t -> Netsim.Packet.t -> Value.t option

(** [encode ~chan value] rebuilds a wire packet from a packet value. Packets
    for the distinguished [network] channel travel untagged; other channels
    tag the packet with the channel name.
    @raise Value.Runtime_error if [value] is not a packet tuple. *)
val encode : chan:string -> Value.t -> Netsim.Packet.t

(** [matches pkt_type packet] tests decodability without building values. *)
val matches : Planp.Ptype.t -> Netsim.Packet.t -> bool

(** [layout_ok pkt_type] checks the static well-formedness used by the type
    checker's clients: [blob] only in last position, payload components
    scalar. *)
val layout_ok : Planp.Ptype.t -> bool
