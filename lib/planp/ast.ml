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
  | And
  | Or
  | Concat

type unop = Not | Neg

type expr = { desc : desc; loc : Loc.t; mutable ty : Ptype.t option }

and desc =
  | Int of int
  | Bool of bool
  | String of string
  | Char of char
  | Unit
  | Host of int
  | Var of string
  | Call of string * expr list
  | Tuple of expr list
  | Proj of int * expr
  | Let of binding list * expr
  | If of expr * expr * expr
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Seq of expr * expr
  | On_remote of string * expr
  | On_neighbor of string * expr
  | Raise of string
  | Try of expr * (string * expr) list

and binding = { bind_name : string; bind_type : Ptype.t; bind_expr : expr }

type channel = {
  chan_name : string;
  ps_name : string;
  ps_type : Ptype.t;
  ss_name : string;
  ss_type : Ptype.t;
  pkt_name : string;
  pkt_type : Ptype.t;
  initstate : expr option;
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

let channels program =
  List.filter_map
    (function Dchannel chan -> Some chan | Dval _ | Dfun _ | Dexception _ | Dprotostate _ -> None)
    program

let channel_names program =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun chan ->
      if Hashtbl.mem seen chan.chan_name then None
      else begin
        Hashtbl.add seen chan.chan_name ();
        Some chan.chan_name
      end)
    (channels program)

let protostate program =
  List.find_map
    (function
      | Dprotostate (ty, expr, _) -> Some (ty, expr)
      | Dval _ | Dfun _ | Dexception _ | Dchannel _ -> None)
    program

let line_count source =
  let lines = String.split_on_char '\n' source in
  let is_code line =
    let trimmed = String.trim line in
    String.length trimmed > 0
    && not (String.length trimmed >= 2 && String.sub trimmed 0 2 = "--")
  in
  List.length (List.filter is_code lines)

let mk loc desc = { desc; loc; ty = None }
let network_channel = "network"
