type chan_exec =
  World.t -> ps:Value.t -> ss:Value.t -> pkt:Value.t -> Value.t * Value.t

type t = {
  backend_name : string;
  compile :
    Planp.Typecheck.checked ->
    globals:(string * Value.t) list ->
    (Planp.Ast.channel * chan_exec) list;
}
