(* Payloads are views, not copies.  A payload is either contiguous — a
   [base] string with an [off]/[len] window — or a pending concatenation
   ([parts] non-empty) whose bytes have not been materialized yet.  Byte
   accessors read a rope's first part in place when the read lies inside
   it, and [window] and [sub] find the one part holding a range; any
   other access [force]s the node: one allocation, memoized in place, so
   repeated access and every slice taken afterwards share the same base.
   [sub] and [concat] on the per-packet path therefore never copy bytes;
   only [force] (a read that leaves the first part, or a range across
   parts) and [compact]/[to_string] do. *)

type t = {
  mutable base : string;
  mutable off : int;
  len : int;
  mutable parts : t array; (* [||] once contiguous *)
}

let empty = { base = ""; off = 0; len = 0; parts = [||] }

let of_string s =
  let len = String.length s in
  if len = 0 then empty else { base = s; off = 0; len; parts = [||] }

let length t = t.len

let rec blit_to t buf pos =
  if Array.length t.parts = 0 then (
    Bytes.blit_string t.base t.off buf pos t.len;
    pos + t.len)
  else Array.fold_left (fun pos part -> blit_to part buf pos) pos t.parts

(* Materialize a pending concatenation.  Idempotent and memoizing: the
   flattened bytes replace the parts in place, so every holder of this
   node (and every later slice of it) reuses the same base string. *)
let force t =
  if Array.length t.parts <> 0 then (
    let buf = Bytes.create t.len in
    ignore (blit_to t buf 0);
    t.base <- Bytes.unsafe_to_string buf;
    t.off <- 0;
    t.parts <- [||])

let to_string t =
  force t;
  if t.off = 0 && String.length t.base = t.len then t.base
  else String.sub t.base t.off t.len

let of_bytes b = of_string (Bytes.to_string b)

let check t off width op =
  if off < 0 || off + width > t.len then
    invalid_arg
      (Printf.sprintf "Payload.%s: offset %d (width %d) out of bounds (len %d)"
         op off width t.len)

(* The contiguous node holding bytes [off, off + width) of [t], at the
   same offsets: [t] when it is contiguous; its first part's holder when
   the range lies inside that part (a header read on a rope of header and
   body never flattens it); else [t] itself, forced. *)
let rec holder t off width =
  if Array.length t.parts = 0 then t
  else
    let first = Array.unsafe_get t.parts 0 in
    if off + width <= first.len then holder first off width
    else (
      force t;
      t)

let get_u8 t off =
  check t off 1 "get_u8";
  let h = holder t off 1 in
  Char.code (String.unsafe_get h.base (h.off + off))

let get_u16 t off =
  check t off 2 "get_u16";
  let h = holder t off 2 in
  let base = h.base and o = h.off + off in
  (Char.code (String.unsafe_get base o) lsl 8)
  lor Char.code (String.unsafe_get base (o + 1))

let get_u32 t off =
  check t off 4 "get_u32";
  let h = holder t off 4 in
  let base = h.base and o = h.off + off in
  (Char.code (String.unsafe_get base o) lsl 24)
  lor (Char.code (String.unsafe_get base (o + 1)) lsl 16)
  lor (Char.code (String.unsafe_get base (o + 2)) lsl 8)
  lor Char.code (String.unsafe_get base (o + 3))

(* [window]'s descent: the part of [t] whose bytes hold [pos, pos + len),
   scanning parts from the [i]th, which starts at [start]. A range that
   straddles two parts forces the node whose parts it straddles, and
   only that node. *)
let rec window_in t pos len =
  if Array.length t.parts = 0 then (t.base, t.off + pos)
  else part_window t 0 0 pos len

and part_window t i start pos len =
  let part = t.parts.(i) in
  let stop = start + part.len in
  if pos + len > stop then part_window t (i + 1) stop pos len
  else if pos >= start then window_in part (pos - start) len
  else (
    force t;
    (t.base, pos))

let window t ~pos ~len =
  check t pos len "window";
  window_in t pos len

let sub t ~pos ~len =
  check t pos len "sub";
  if len = 0 then empty
  else if pos = 0 && len = t.len then t
  else
    let base, off = window_in t pos len in
    { base; off; len; parts = [||] }

let concat parts =
  match List.filter (fun p -> p.len <> 0) parts with
  | [] -> empty
  | [ p ] -> p
  | parts ->
      let parts = Array.of_list parts in
      let len = Array.fold_left (fun acc p -> acc + p.len) 0 parts in
      { base = ""; off = 0; len; parts }

let equal a b =
  a == b
  || a.len = b.len
     && (force a;
         force b;
         let rec go i =
           i >= a.len
           || String.unsafe_get a.base (a.off + i)
              = String.unsafe_get b.base (b.off + i)
              && go (i + 1)
         in
         go 0)

(* Drop any surrounding base: after [compact] the payload's storage is
   exactly its own bytes.  Mutates in place so all holders of the view
   stop retaining the larger backing string. *)
let compact t =
  force t;
  if t.off <> 0 || String.length t.base <> t.len then (
    t.base <- String.sub t.base t.off t.len;
    t.off <- 0);
  t

let fill len byte = of_string (String.make len (Char.chr (byte land 0xff)))

let pp fmt t =
  force t;
  let n = t.len in
  let shown = min n 16 in
  Format.fprintf fmt "payload[%d:" n;
  for i = 0 to shown - 1 do
    Format.fprintf fmt " %02x" (Char.code t.base.[t.off + i])
  done;
  if shown < n then Format.fprintf fmt " ...";
  Format.fprintf fmt "]"

module Writer = struct
  type w = Buffer.t

  let create () = Buffer.create 64
  let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

  let u16 w v =
    u8 w (v lsr 8);
    u8 w v

  let u32 w v =
    u8 w (v lsr 24);
    u8 w (v lsr 16);
    u8 w (v lsr 8);
    u8 w v

  let string = Buffer.add_string

  (* Walk the rope directly: appending a pending concatenation never
     forces it. *)
  let rec raw w p =
    if Array.length p.parts = 0 then Buffer.add_substring w p.base p.off p.len
    else Array.iter (raw w) p.parts

  let finish w = of_string (Buffer.contents w)
end

module Reader = struct
  type r = { data : t; mutable pos : int }

  let create data = { data; pos = 0 }

  let u8 r =
    let v = get_u8 r.data r.pos in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    let v = get_u16 r.data r.pos in
    r.pos <- r.pos + 2;
    v

  let u32 r =
    let v = get_u32 r.data r.pos in
    r.pos <- r.pos + 4;
    v

  let string r len =
    let s = to_string (sub r.data ~pos:r.pos ~len) in
    r.pos <- r.pos + len;
    s

  let remaining r = r.data.len - r.pos

  let rest r =
    let p = sub r.data ~pos:r.pos ~len:(remaining r) in
    r.pos <- r.data.len;
    p
end
