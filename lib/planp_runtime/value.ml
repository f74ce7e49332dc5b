type ip_view = { vsrc : int; vdst : int; vttl : int }

type t =
  | Vint of int
  | Vbool of bool
  | Vstring of string
  | Vchar of char
  | Vunit
  | Vhost of int
  | Vblob of Netsim.Payload.t
  | Vip of ip_view
  | Vtcp of Netsim.Packet.tcp_header
  | Vudp of Netsim.Packet.udp_header
  | Vtuple of t array
  | Vtable of table

and table = { hint : int; mutable layout : layout }

and layout =
  | Unshaped
  | Flat of flat
  | Chained of chained

and flat = {
  width : int;
  mutable slots : int array;
  mutable vals : t array;
  mutable live : int;
  mutable used : int;
  mutable last : int;
  packed : int array;
}

and chained = { mutable buckets : bucket array; mutable count : int }

and bucket =
  | Nil
  | Cons of { ckey : t; chash : int; mutable cval : t; mutable next : bucket }

exception Planp_raise of string
exception Runtime_error of string

(* Interned booleans: comparisons on the per-packet path return these
   shared blocks instead of allocating a fresh [Vbool]. *)
let vtrue = Vbool true
let vfalse = Vbool false
let vbool b = if b then vtrue else vfalse

let rec equal a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vstring x, Vstring y -> String.equal x y
  | Vchar x, Vchar y -> x = y
  | Vunit, Vunit -> true
  | Vhost x, Vhost y -> x = y
  | Vblob x, Vblob y -> Netsim.Payload.equal x y
  | Vip x, Vip y -> x = y
  | Vtcp x, Vtcp y -> x = y
  | Vudp x, Vudp y -> x = y
  | Vtuple xs, Vtuple ys ->
      xs == ys
      || Array.length xs = Array.length ys
         &&
         let rec go i =
           i >= Array.length xs
           || (equal (Array.unsafe_get xs i) (Array.unsafe_get ys i)
              && go (i + 1))
         in
         go 0
  | Vtable x, Vtable y -> x == y
  | ( ( Vint _ | Vbool _ | Vstring _ | Vchar _ | Vunit | Vhost _ | Vblob _
      | Vip _ | Vtcp _ | Vudp _ | Vtuple _ | Vtable _ ),
      _ ) ->
      false

let compare_values a b =
  match (a, b) with
  | Vint x, Vint y -> Int.compare x y
  | Vchar x, Vchar y -> Char.compare x y
  | Vstring x, Vstring y -> String.compare x y
  | _ -> raise (Runtime_error "values are not orderable")

let rec default_of (ty : Planp.Ptype.t) =
  match ty with
  | Planp.Ptype.Tint -> Vint 0
  | Planp.Ptype.Tbool -> Vbool false
  | Planp.Ptype.Tstring -> Vstring ""
  | Planp.Ptype.Tchar -> Vchar '\000'
  | Planp.Ptype.Tunit -> Vunit
  | Planp.Ptype.Thost -> Vhost 0
  | Planp.Ptype.Ttuple components ->
      Vtuple (Array.of_list (List.map default_of components))
  | Planp.Ptype.Tblob | Planp.Ptype.Tip | Planp.Ptype.Ttcp | Planp.Ptype.Tudp
  | Planp.Ptype.Thash _ | Planp.Ptype.Thash_any ->
      raise
        (Runtime_error
           (Printf.sprintf "no default value for type %s"
              (Planp.Ptype.to_string ty)))

let table_length table =
  match table.layout with
  | Unshaped -> 0
  | Flat f -> f.live
  | Chained c -> c.count

let host_string h =
  Printf.sprintf "%d.%d.%d.%d" ((h lsr 24) land 0xff) ((h lsr 16) land 0xff)
    ((h lsr 8) land 0xff) (h land 0xff)

let rec to_string = function
  | Vint n -> string_of_int n
  | Vbool b -> string_of_bool b
  | Vstring s -> s
  | Vchar c -> String.make 1 c
  | Vunit -> "()"
  | Vhost h -> host_string h
  | Vblob payload ->
      Printf.sprintf "<blob:%d>" (Netsim.Payload.length payload)
  | Vip { vsrc; vdst; vttl } ->
      Printf.sprintf "<ip %s->%s ttl=%d>" (host_string vsrc) (host_string vdst)
        vttl
  | Vtcp h ->
      Printf.sprintf "<tcp %d->%d>" h.Netsim.Packet.tcp_src
        h.Netsim.Packet.tcp_dst
  | Vudp h ->
      Printf.sprintf "<udp %d->%d>" h.Netsim.Packet.udp_src
        h.Netsim.Packet.udp_dst
  | Vtuple components ->
      "("
      ^ String.concat ", " (List.map to_string (Array.to_list components))
      ^ ")"
  | Vtable table -> Printf.sprintf "<table:%d>" (table_length table)

let pp fmt value = Format.pp_print_string fmt (to_string value)

let type_error ~expected value =
  raise
    (Runtime_error
       (Printf.sprintf "expected %s, got %s" expected (to_string value)))

let as_int = function Vint n -> n | v -> type_error ~expected:"int" v
let as_bool = function Vbool b -> b | v -> type_error ~expected:"bool" v
let as_string = function Vstring s -> s | v -> type_error ~expected:"string" v
let as_char = function Vchar c -> c | v -> type_error ~expected:"char" v
let as_host = function Vhost h -> h | v -> type_error ~expected:"host" v
let as_blob = function Vblob b -> b | v -> type_error ~expected:"blob" v
let as_ip = function Vip h -> h | v -> type_error ~expected:"ip" v
let as_tcp = function Vtcp h -> h | v -> type_error ~expected:"tcp" v
let as_udp = function Vudp h -> h | v -> type_error ~expected:"udp" v
let as_tuple = function Vtuple t -> t | v -> type_error ~expected:"tuple" v
let as_table = function Vtable t -> t | v -> type_error ~expected:"hash_table" v

module Table = struct
  (* Two layouts, fixed by the first insert. Every key of one table has
     the table's key type, so the first key's shape is the key type's:

     - [Flat]: keys whose type is built from int, host, bool, char and
       unit by tuples pack into [width] ints. Open addressing with linear
       probing over an int array of hashes and key parts, values beside
       it. A lookup reads ints only.
     - [Chained]: every other equality type (a string somewhere in it)
       keeps boxed keys in buckets, with a hash that follows the key's
       structure. *)

  let free = -1
  let removed = -2
  let max_hint = 1 lsl 16

  let create hint = { hint = Int.max 8 (Int.min hint max_hint); layout = Unshaped }
  let length = table_length
  let clear table = table.layout <- Unshaped

  (* A 62-bit variant of SplitMix64's finalizer. *)
  let mix x =
    let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
    let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
    x lxor (x lsr 31)

  let hash_parts parts width =
    let h = ref 0 in
    for i = 0 to width - 1 do
      h := mix (!h + Array.unsafe_get parts i)
    done;
    !h land max_int

  let rec flat_width = function
    | Vint _ | Vhost _ | Vbool _ | Vchar _ | Vunit -> Some 1
    | Vtuple components ->
        Array.fold_left
          (fun acc c ->
            match (acc, flat_width c) with
            | Some a, Some b -> Some (a + b)
            | _ -> None)
          (Some 0) components
    | Vstring _ | Vblob _ | Vip _ | Vtcp _ | Vudp _ | Vtable _ -> None

  (* [pack key parts pos] writes [key]'s parts from [pos]; returns the
     next position. *)
  let rec pack key parts pos =
    if pos >= Array.length parts then
      raise (Runtime_error "table key does not match the table's layout");
    match key with
    | Vint n | Vhost n ->
        parts.(pos) <- n;
        pos + 1
    | Vbool b ->
        parts.(pos) <- Bool.to_int b;
        pos + 1
    | Vchar c ->
        parts.(pos) <- Char.code c;
        pos + 1
    | Vunit ->
        parts.(pos) <- 0;
        pos + 1
    | Vtuple components -> pack_from components 0 parts pos
    | Vstring _ | Vblob _ | Vip _ | Vtcp _ | Vudp _ | Vtable _ ->
        type_error ~expected:"flat table key" key

  and pack_from components i parts pos =
    if i = Array.length components then pos
    else pack_from components (i + 1) parts (pack components.(i) parts pos)

  let rec hash_value = function
    | Vint n | Vhost n -> mix n
    | Vbool b -> mix (Bool.to_int b)
    | Vchar c -> mix (Char.code c)
    | Vunit -> mix 0
    | Vstring s -> Hashtbl.hash s
    | Vtuple components ->
        let h = ref 0 in
        for i = 0 to Array.length components - 1 do
          h := mix (!h + hash_value components.(i))
        done;
        !h
    | (Vblob _ | Vip _ | Vtcp _ | Vudp _ | Vtable _) as key ->
        type_error ~expected:"equality-type table key" key

  (* Writing a value equal to the stored one is skipped: values are
     immutable, and a long-lived table then takes no fresh box per
     refresh. *)
  let same a b =
    a == b
    ||
    match (a, b) with
    | Vint x, Vint y | Vhost x, Vhost y -> x = y
    | Vbool x, Vbool y -> x = y
    | _ -> false

  (* ---- flat layout ---- *)

  (* Slot [i] is [slots.(i * (width + 1))], its hash (or [free] /
     [removed]), followed by its key's [width] parts, so a probe reads one
     cache line; its value is [vals.(i)]. [last] is the slot of the key
     most recently found or placed: the primitives a packet applies to one
     key (a [tblMem], then a [tblGet], then a [tblSet]) hash it once. *)
  let flat_create width capacity =
    {
      width;
      slots =
        Array.init (capacity * (width + 1)) (fun j ->
            if j mod (width + 1) = 0 then free else 0);
      vals = Array.make capacity Vunit;
      live = 0;
      used = 0;
      last = 0;
      packed = Array.make width 0;
    }

  let rec keys_match slots base parts j width =
    j >= width
    || Array.unsafe_get slots (base + 1 + j) = Array.unsafe_get parts j
       && keys_match slots base parts (j + 1) width

  (* [last], if it still holds [parts] (keys are unique among live slots,
     so that is the entry), or -1. *)
  let memo f parts =
    let base = f.last * (f.width + 1) in
    if
      base < Array.length f.slots
      && Array.unsafe_get f.slots base >= 0
      && keys_match f.slots base parts 0 f.width
    then f.last
    else -1

  let rec probe_find f parts h mask i =
    let base = i * (f.width + 1) in
    let s = Array.unsafe_get f.slots base in
    if s = free then -1
    else if s = h && keys_match f.slots base parts 0 f.width then (
      f.last <- i;
      i)
    else probe_find f parts h mask ((i + 1) land mask)

  (* The slot holding [parts], or -1. *)
  let flat_find f parts =
    let m = memo f parts in
    if m >= 0 then m
    else
      let h = hash_parts parts f.width in
      let mask = Array.length f.vals - 1 in
      probe_find f parts h mask (h land mask)

  (* The slot [parts] lives in, or the slot to insert it at: the first
     removed slot on its probe path, else the free slot ending it. *)
  let rec probe_place f parts h mask i reuse =
    let base = i * (f.width + 1) in
    let s = Array.unsafe_get f.slots base in
    if s = free then if reuse >= 0 then reuse else i
    else if s = h && keys_match f.slots base parts 0 f.width then i
    else
      probe_place f parts h mask ((i + 1) land mask)
        (if reuse < 0 && s = removed then i else reuse)

  let flat_place f parts h v =
    let mask = Array.length f.vals - 1 in
    let slot = probe_place f parts h mask (h land mask) (-1) in
    let base = slot * (f.width + 1) in
    let s = f.slots.(base) in
    f.last <- slot;
    if s >= 0 then (if not (same f.vals.(slot) v) then f.vals.(slot) <- v)
    else (
      if s = free then f.used <- f.used + 1;
      f.slots.(base) <- h;
      for j = 0 to f.width - 1 do
        f.slots.(base + 1 + j) <- parts.(j)
      done;
      f.vals.(slot) <- v;
      f.live <- f.live + 1)

  (* Rehash into a table with room for the live entries, dropping the
     removed markers; the stored hashes are reused. *)
  let flat_grow table f =
    let capacity = Array.length f.vals in
    let capacity = if 2 * (f.live + 1) > capacity then 2 * capacity else capacity in
    let g = flat_create f.width capacity in
    let stride = f.width + 1 in
    for slot = 0 to Array.length f.vals - 1 do
      let h = f.slots.(slot * stride) in
      if h >= 0 then (
        Array.blit f.slots ((slot * stride) + 1) g.packed 0 f.width;
        flat_place g g.packed h f.vals.(slot))
    done;
    table.layout <- Flat g;
    g

  let flat_set table f parts v =
    let m = memo f parts in
    if m >= 0 then (if not (same f.vals.(m) v) then f.vals.(m) <- v)
    else
      let f =
        if 4 * (f.used + 1) > 3 * Array.length f.vals then flat_grow table f
        else f
      in
      flat_place f parts (hash_parts parts f.width) v

  let flat_remove f parts =
    let slot = flat_find f parts in
    if slot >= 0 then (
      f.slots.(slot * (f.width + 1)) <- removed;
      f.vals.(slot) <- Vunit;
      f.live <- f.live - 1)

  let rec capacity_for hint c = if c >= hint then c else capacity_for hint (2 * c)

  (* ---- chained layout ---- *)

  let chained_bucket c h = h land (Array.length c.buckets - 1)

  (* The cell holding [key] in a bucket chain, or [Nil]. *)
  let rec chained_find key h = function
    | Nil -> Nil
    | Cons cell as here ->
        if cell.chash = h && equal cell.ckey key then here
        else chained_find key h cell.next

  let chained_set c key v =
    let h = hash_value key in
    let b = chained_bucket c h in
    match chained_find key h c.buckets.(b) with
    | Cons cell -> if not (same cell.cval v) then cell.cval <- v
    | Nil ->
        c.buckets.(b) <-
          Cons { ckey = key; chash = h; cval = v; next = c.buckets.(b) };
        c.count <- c.count + 1;
        if c.count > 2 * Array.length c.buckets then (
          let old = c.buckets in
          c.buckets <- Array.make (2 * Array.length old) Nil;
          let rec move = function
            | Nil -> ()
            | Cons cell as here ->
                let next = cell.next in
                let b = chained_bucket c cell.chash in
                cell.next <- c.buckets.(b);
                c.buckets.(b) <- here;
                move next
          in
          Array.iter move old)

  let chained_remove c key =
    let h = hash_value key in
    let b = chained_bucket c h in
    let rec go = function
      | Nil -> Nil
      | Cons cell as here ->
          if cell.chash = h && equal cell.ckey key then (
            c.count <- c.count - 1;
            cell.next)
          else (
            cell.next <- go cell.next;
            here)
    in
    c.buckets.(b) <- go c.buckets.(b)

  let chained_lookup c key =
    let h = hash_value key in
    chained_find key h c.buckets.(chained_bucket c h)

  (* ---- Value.t keys: the interpreter and the VM ---- *)

  let pack_key f key =
    if pack key f.packed 0 <> f.width then
      raise (Runtime_error "table key does not match the table's layout")

  let flat_find_value f key =
    pack_key f key;
    flat_find f f.packed

  let get table key ~default =
    match table.layout with
    | Unshaped -> default
    | Flat f ->
        let slot = flat_find_value f key in
        if slot >= 0 then f.vals.(slot) else default
    | Chained c -> (
        match chained_lookup c key with
        | Cons cell -> cell.cval
        | Nil -> default)

  let mem table key =
    match table.layout with
    | Unshaped -> false
    | Flat f -> flat_find_value f key >= 0
    | Chained c -> ( match chained_lookup c key with Nil -> false | Cons _ -> true)

  let set table key v =
    match table.layout with
    | Flat f ->
        pack_key f key;
        flat_set table f f.packed v
    | Chained c -> chained_set c key v
    | Unshaped -> (
        let capacity = capacity_for table.hint 8 in
        match flat_width key with
        | Some width ->
            let f = flat_create width capacity in
            table.layout <- Flat f;
            pack_key f key;
            flat_set table f f.packed v
        | None ->
            let c = { buckets = Array.make capacity Nil; count = 0 } in
            table.layout <- Chained c;
            chained_set c key v)

  let remove table key =
    match table.layout with
    | Unshaped -> ()
    | Flat f ->
        pack_key f key;
        flat_remove f f.packed
    | Chained c -> chained_remove c key

  (* ---- unboxed key parts: the JIT ---- *)

  let shape_error () =
    raise (Runtime_error "table key parts do not match the table's layout")

  let flat_of table parts =
    match table.layout with
    | Flat f when f.width = Array.length parts -> f
    | Flat _ | Chained _ | Unshaped -> shape_error ()

  let get_parts table parts ~default =
    match table.layout with
    | Unshaped -> default
    | _ ->
        let f = flat_of table parts in
        let slot = flat_find f parts in
        if slot >= 0 then Array.unsafe_get f.vals slot else default

  let mem_parts table parts =
    match table.layout with
    | Unshaped -> false
    | _ ->
        flat_find (flat_of table parts) parts >= 0

  let set_parts table parts v =
    match table.layout with
    | Unshaped ->
        let f =
          flat_create (Array.length parts) (capacity_for table.hint 8)
        in
        table.layout <- Flat f;
        flat_set table f parts v
    | _ -> flat_set table (flat_of table parts) parts v

  let remove_parts table parts =
    match table.layout with
    | Unshaped -> ()
    | _ -> flat_remove (flat_of table parts) parts

  let rec parts_width (ty : Planp.Ptype.t) =
    match ty with
    | Planp.Ptype.Tint | Planp.Ptype.Thost | Planp.Ptype.Tbool
    | Planp.Ptype.Tchar | Planp.Ptype.Tunit ->
        Some 1
    | Planp.Ptype.Ttuple components ->
        List.fold_left
          (fun acc c ->
            match (acc, parts_width c) with
            | Some a, Some b -> Some (a + b)
            | _ -> None)
          (Some 0) components
    | Planp.Ptype.Tstring | Planp.Ptype.Tblob | Planp.Ptype.Tip
    | Planp.Ptype.Ttcp | Planp.Ptype.Tudp | Planp.Ptype.Thash _
    | Planp.Ptype.Thash_any ->
        None
end
