module Addr_set = Set.Make (Int)

type t = { groups : Addr_set.t ref Int_table.t }

let create () = { groups = Int_table.create 8 }

let check_group group =
  if not (Addr.is_multicast group) then
    invalid_arg
      (Printf.sprintf "Multicast: %s is not a class-D address"
         (Addr.to_string group))

let join registry ~group member =
  check_group group;
  match Int_table.find_opt registry.groups group with
  | Some set -> set := Addr_set.add member !set
  | None -> Int_table.add registry.groups group (ref (Addr_set.singleton member))

let leave registry ~group member =
  check_group group;
  match Int_table.find_opt registry.groups group with
  | Some set ->
      set := Addr_set.remove member !set;
      if Addr_set.is_empty !set then Int_table.remove registry.groups group
  | None -> ()

let members registry ~group =
  match Int_table.find_opt registry.groups group with
  | Some set -> Addr_set.elements !set
  | None -> []

let iter_members registry ~group f =
  match Int_table.find_opt registry.groups group with
  | Some set -> Addr_set.iter f !set
  | None -> ()

let is_member registry ~group member =
  match Int_table.find_opt registry.groups group with
  | Some set -> Addr_set.mem member !set
  | None -> false

let groups registry =
  Int_table.fold (fun group _ acc -> group :: acc) registry.groups []
  |> List.sort Addr.compare
