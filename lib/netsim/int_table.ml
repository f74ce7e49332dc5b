include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Multiply by an odd 62-bit constant, then fold the high half onto the
     low bits the table indexes by, so keys that differ only in their
     middle bytes spread over the buckets. *)
  let hash key =
    let h = key * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)
