(** What a running PLAN-P program may observe and do on its node.

    {!Runtime} builds one [World.t] per incoming interface of its node and
    threads it through whichever backend executes the channel body, for
    every packet from that interface. Pure evaluation in tests uses
    {!dummy}. *)

type target =
  | Remote  (** [OnRemote]: route toward the packet's IP destination *)
  | Neighbor  (** [OnNeighbor]: flood link-level neighbors (except inbound) *)

type t = {
  now : unit -> float;  (** simulated seconds *)
  node_addr : unit -> int;
  iface_load_bps : int -> float;
  iface_capacity_bps : int -> float;
  incoming_iface : int;  (** -1 for locally originated invocations *)
  emit : target -> chan:string -> Value.t -> unit;
  deliver : Value.t -> unit;  (** hand to the local application *)
  print : string -> unit;
}

(** [dummy ()] records prints and emissions instead of performing them. *)
val dummy :
  unit -> t * (unit -> string list) * (unit -> (target * string * Value.t) list)
