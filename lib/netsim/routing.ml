type route = { ifindex : int; next_hop : Addr.t option }

type table = {
  hosts : route Int_table.t;
  mutable default : route option;
}

let create () = { hosts = Int_table.create 32; default = None }
let add_host table dst route = Int_table.replace table.hosts dst route
let remove_host table dst = Int_table.remove table.hosts dst
let set_default table route = table.default <- route

let lookup table dst =
  match Int_table.find_opt table.hosts dst with
  | Some route -> Some route
  | None -> table.default

exception No_route

(* Allocation-free variant of [lookup] for the forwarding fast path:
   no [Some] wrapper per packet (raising a constant exception does not
   allocate). *)
let find table dst =
  match Int_table.find table.hosts dst with
  | route -> route
  | exception Not_found -> (
      match table.default with Some route -> route | None -> raise No_route)

let clear table =
  Int_table.reset table.hosts;
  table.default <- None

let clear_hosts table = Int_table.reset table.hosts

(* Int_table.fold order is unspecified; sort so [entries] (and therefore
   [pp]) is deterministic across runs and OCaml versions. *)
let entries table =
  Int_table.fold (fun dst route acc -> (dst, route) :: acc) table.hosts []
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)

let pp fmt table =
  let pp_route fmt { ifindex; next_hop } =
    match next_hop with
    | None -> Format.fprintf fmt "if%d (direct)" ifindex
    | Some hop -> Format.fprintf fmt "if%d via %a" ifindex Addr.pp hop
  in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (dst, route) ->
      Format.fprintf fmt "%a -> %a@," Addr.pp dst pp_route route)
    (entries table);
  (match table.default with
  | Some route -> Format.fprintf fmt "default -> %a" pp_route route
  | None -> ());
  Format.fprintf fmt "@]"
