type t = { mutable samples : float array; mutable len : int }

let create () = { samples = Array.make 64 0.0; len = 0 }

let add t value =
  if t.len = Array.length t.samples then begin
    let grown = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 grown 0 t.len;
    t.samples <- grown
  end;
  t.samples.(t.len) <- value;
  t.len <- t.len + 1

let count t = t.len

let iter t f =
  for i = 0 to t.len - 1 do
    f t.samples.(i)
  done

let merge ~into t = iter t (add into)

(* [Float.compare a b < 0], inlined: NaN sorts below every number. *)
let[@inline] lt (a : float) b = a < b || (a <> a && b = b)

(* The value of rank [k] (0-based) among the samples, by Hoare's selection
   with a median-of-three pivot: partition around the pivot and keep the
   side holding [k].  Reorders the samples, in expected linear time. *)
let select t k =
  let a = t.samples in
  let lo = ref 0 and hi = ref (t.len - 1) in
  while !lo < !hi do
    let x =
      let l = a.(!lo) and m = a.((!lo + !hi) / 2) and h = a.(!hi) in
      if lt l m then (if lt m h then m else if lt l h then h else l)
      else if lt l h then l
      else if lt m h then h
      else m
    in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while lt a.(!i) x do
        incr i
      done;
      while lt x a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    (* a.(lo..j) <= x <= a.(i..hi), and everything between equals x. *)
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done;
  a.(k)

let mean t =
  if t.len = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.len - 1 do
      sum := !sum +. t.samples.(i)
    done;
    !sum /. float_of_int t.len
  end

let extremum t ~first =
  if t.len = 0 then 0.0
  else begin
    let best = ref t.samples.(0) in
    for i = 1 to t.len - 1 do
      let v = t.samples.(i) in
      if first v !best then best := v
    done;
    !best
  end

let min t = extremum t ~first:lt
let max t = extremum t ~first:(fun a b -> lt b a)

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p outside [0, 100]";
  if t.len = 0 then 0.0
  else begin
    (* nearest rank *)
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.len)) in
    select t (Stdlib.max 0 (Stdlib.min (t.len - 1) (rank - 1)))
  end

let stddev t =
  if t.len < 2 then 0.0
  else begin
    let m = mean t in
    let acc = ref 0.0 in
    for i = 0 to t.len - 1 do
      let d = t.samples.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int t.len)
  end

let pp fmt t =
  Format.fprintf fmt "n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f" (count t)
    (mean t) (percentile t 50.0) (percentile t 95.0) (max t)
