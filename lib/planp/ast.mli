(** Abstract syntax of PLAN-P programs.

    A program is a list of declarations: global values, (non-recursive)
    functions, exceptions, an optional protocol-state declaration, and
    channels. Channels named ["network"] apply to existing traffic selected
    by packet type; channels with other names apply to packets explicitly
    sent on them (the packet carries the channel tag). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Gt
  | Le
  | Ge
  | And  (** [andalso], short-circuit *)
  | Or  (** [orelse], short-circuit *)
  | Concat  (** [^] string concatenation *)

type unop = Not | Neg

type expr = {
  desc : desc;
  loc : Loc.t;
  mutable ty : Ptype.t option;
      (** the expression's type, written by {!Typecheck.check}; [None] before
          checking, and after it for an expression that raises on every
          path (it fits any context). A pass that rewrites a checked
          expression keeps the type of the node it replaces. *)
}

and desc =
  | Int of int
  | Bool of bool
  | String of string
  | Char of char
  | Unit
  | Host of int  (** dotted-quad literal *)
  | Var of string
  | Call of string * expr list  (** user function or primitive *)
  | Tuple of expr list
  | Proj of int * expr  (** [#n e], 1-based *)
  | Let of binding list * expr
  | If of expr * expr * expr
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Seq of expr * expr
  | On_remote of string * expr  (** [OnRemote(chan, packet)] *)
  | On_neighbor of string * expr  (** [OnNeighbor(chan, packet)] *)
  | Raise of string
  | Try of expr * (string * expr) list  (** [try e handle E1 => e1 | ...] *)

and binding = { bind_name : string; bind_type : Ptype.t; bind_expr : expr }

type channel = {
  chan_name : string;
  ps_name : string;
  ps_type : Ptype.t;  (** protocol-state parameter *)
  ss_name : string;
  ss_type : Ptype.t;  (** channel-state parameter *)
  pkt_name : string;
  pkt_type : Ptype.t;  (** packet parameter; must satisfy {!Ptype.is_packet} *)
  initstate : expr option;  (** initial channel state *)
  body : expr;
  chan_loc : Loc.t;
}

type fundef = {
  fun_name : string;
  params : (string * Ptype.t) list;
  ret_type : Ptype.t;
  fun_body : expr;
  fun_loc : Loc.t;
}

type decl =
  | Dval of binding * Loc.t
  | Dfun of fundef
  | Dexception of string * Loc.t
  | Dprotostate of Ptype.t * expr * Loc.t
  | Dchannel of channel

type program = decl list

(** [channels program] lists channel declarations in source order. *)
val channels : program -> channel list

(** [channel_names program] is deduplicated, in first-occurrence order. *)
val channel_names : program -> string list

(** [protostate program] is the protocol-state declaration, if any. *)
val protostate : program -> (Ptype.t * expr) option

(** [line_count source] counts non-blank, non-comment-only source lines —
    the metric of the paper's Fig. 3. *)
val line_count : string -> int

(** [mk loc desc] is an unchecked expression ([ty = None]). *)
val mk : Loc.t -> desc -> expr

(** The distinguished channel name whose packets are selected by type from
    existing traffic. *)
val network_channel : string
