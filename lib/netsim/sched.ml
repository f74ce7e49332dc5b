(* Closure-free event scheduler: a calendar-queue (timing-wheel) front end
   backed by an overflow binary heap.

   Every queued event owns a slot in a pool of parallel arrays (float due
   times, int sequence numbers, payloads, int links).  Slots are recycled
   through a free list, so once the pool has grown to the working-set size,
   steady-state add/pop allocates nothing: times live in an unboxed float
   array, links and seqs in int arrays, and the payload array only ever
   stores pointers the caller already holds.

   Ordering is exactly (time, seq) order: seq is a global counter stamped
   per insertion (or reserved up front with [fresh_seq] and passed to
   [add_stamped]), ties break FIFO.

   The wheel covers [wheel_t0, wheel_t0 + nbuckets * width).  An insert
   below that horizon lands in bucket floor((t - wheel_t0) / width),
   clamped into [cur, nbuckets-1]; inserts at or past the horizon go to
   the overflow heap.  Buckets are singly-linked lists threaded through
   the pool's [enext] array, kept sorted by (time, seq) — with the bucket
   width adapted to the mean inter-event gap each bucket holds O(1) events,
   so the sorted insert is O(1) amortized.

   Invariants (the clamp makes the first two safe even under float
   rounding):
     - bucket index is a monotone function of time, so an event in bucket
       j > cur cannot be due before any event clamped into bucket [cur];
     - equal times map to equal buckets, so FIFO ties always meet in one
       sorted list;
     - the heap only holds events at or past the horizon, and the horizon
       only moves at a rotation (when the wheel is empty), so the wheel
       always holds a prefix of the schedule;
     - only the live prefix of any pool array is meaningful: slots on the
       free list keep stale times/seqs and [clear] never has to touch
       capacity beyond what was used. *)

type fcell = { mutable v : float }

type 'a t = {
  dummy : 'a;
  (* Slot pool: parallel arrays indexed by slot id. *)
  mutable etime : float array;
  mutable eseq : int array;
  mutable evalue : 'a array;
  mutable enext : int array; (* bucket chain / free-list link; -1 = end *)
  mutable free : int; (* free-list head, -1 = none *)
  mutable size : int; (* live events, wheel + heap *)
  mutable seq_counter : int;
  (* Calendar wheel. *)
  mutable bucket : int array; (* head slot per bucket, -1 = empty *)
  mutable btail : int array; (* tail slot; only read while head <> -1 *)
  mutable cur : int; (* first possibly-nonempty bucket *)
  mutable wheel_len : int;
  mutable wheel_t0 : float; (* cold: mutated only at rotation *)
  mutable width : float;
  mutable inv_width : float;
  mutable horizon : float; (* wheel_t0 + nbuckets * width *)
  (* Overflow heap of slot ids, ordered by (etime, eseq). *)
  mutable hslot : int array;
  mutable hlen : int;
  (* Hot floats mutated per pop, kept in an unboxed array:
     0 = last pop time, 1 = EMA of inter-pop gaps. *)
  fs : float array;
}

let default_width = 1e-3

let create ?(nbuckets = 256) ~dummy () =
  if nbuckets <= 0 then invalid_arg "Sched.create: nbuckets must be positive";
  let cap = 16 in
  let enext = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1) in
  {
    dummy;
    etime = Array.make cap 0.0;
    eseq = Array.make cap 0;
    evalue = Array.make cap dummy;
    enext;
    free = 0;
    size = 0;
    seq_counter = 0;
    bucket = Array.make nbuckets (-1);
    btail = Array.make nbuckets (-1);
    cur = 0;
    wheel_len = 0;
    wheel_t0 = 0.0;
    width = default_width;
    inv_width = 1.0 /. default_width;
    horizon = float_of_int nbuckets *. default_width;
    hslot = Array.make 16 0;
    hlen = 0;
    fs = [| 0.0; 0.0 |];
  }

let size t = t.size
let is_empty t = t.size = 0

let[@inline] fresh_seq t =
  let seq = t.seq_counter in
  t.seq_counter <- seq + 1;
  seq

(* ------------------------------------------------------------------ *)
(* Slot pool                                                           *)
(* ------------------------------------------------------------------ *)

let[@inline never] grow_pool t =
  let cap = Array.length t.etime in
  let ncap = 2 * cap in
  let etime = Array.make ncap 0.0 in
  Array.blit t.etime 0 etime 0 cap;
  let eseq = Array.make ncap 0 in
  Array.blit t.eseq 0 eseq 0 cap;
  let evalue = Array.make ncap t.dummy in
  Array.blit t.evalue 0 evalue 0 cap;
  let enext = Array.make ncap (-1) in
  Array.blit t.enext 0 enext 0 cap;
  (* Thread the new slots onto the free list. *)
  for i = cap to ncap - 1 do
    enext.(i) <- (if i = ncap - 1 then t.free else i + 1)
  done;
  t.etime <- etime;
  t.eseq <- eseq;
  t.evalue <- evalue;
  t.enext <- enext;
  t.free <- cap

(* Slot [a] sorts strictly before slot [b]. Seqs are unique, so this is a
   total order. *)
let[@inline] slot_before t a b =
  let ta = Array.unsafe_get t.etime a and tb = Array.unsafe_get t.etime b in
  ta < tb
  || (ta = tb && Array.unsafe_get t.eseq a < Array.unsafe_get t.eseq b)

(* ------------------------------------------------------------------ *)
(* Overflow heap (slot ids keyed by pool time/seq)                     *)
(* ------------------------------------------------------------------ *)

let[@inline never] heap_grow t =
  let cap = Array.length t.hslot in
  let hslot = Array.make (2 * cap) 0 in
  Array.blit t.hslot 0 hslot 0 cap;
  t.hslot <- hslot

let heap_add t s =
  if t.hlen = Array.length t.hslot then heap_grow t;
  let h = t.hslot in
  let i = ref t.hlen in
  t.hlen <- t.hlen + 1;
  h.(!i) <- s;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if slot_before t h.(!i) h.(parent) then begin
      let tmp = h.(!i) in
      h.(!i) <- h.(parent);
      h.(parent) <- tmp;
      i := parent
    end
    else continue := false
  done

let heap_pop t =
  let h = t.hslot in
  let root = h.(0) in
  t.hlen <- t.hlen - 1;
  h.(0) <- h.(t.hlen);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
    let smallest = ref !i in
    if left < t.hlen && slot_before t h.(left) h.(!smallest) then
      smallest := left;
    if right < t.hlen && slot_before t h.(right) h.(!smallest) then
      smallest := right;
    if !smallest <> !i then begin
      let tmp = h.(!i) in
      h.(!i) <- h.(!smallest);
      h.(!smallest) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  root

(* ------------------------------------------------------------------ *)
(* Wheel                                                               *)
(* ------------------------------------------------------------------ *)

(* Sorted insert of slot [s] into bucket [b]: skip everything due before
   [s] (equal-time earlier seqs included, preserving FIFO).  The tail
   pointer makes the dominant pattern — appending at or after the bucket's
   newest entry, as FIFO waves and rising times do — O(1) regardless of
   how many events share the bucket. *)
let bucket_insert t b s =
  let head = t.bucket.(b) in
  if head = -1 then begin
    t.enext.(s) <- -1;
    t.bucket.(b) <- s;
    t.btail.(b) <- s
  end
  else if slot_before t t.btail.(b) s then begin
    t.enext.(s) <- -1;
    t.enext.(t.btail.(b)) <- s;
    t.btail.(b) <- s
  end
  else if slot_before t s head then begin
    t.enext.(s) <- head;
    t.bucket.(b) <- s
  end
  else begin
    let p = ref head in
    let continue = ref true in
    while !continue do
      let n = t.enext.(!p) in
      if n <> -1 && slot_before t n s then p := n else continue := false
    done;
    t.enext.(s) <- t.enext.(!p);
    t.enext.(!p) <- s
  end;
  t.wheel_len <- t.wheel_len + 1

(* Place slot [s] (time already below the horizon) into its wheel bucket,
   clamped into [cur, nbuckets-1]. *)
let[@inline] wheel_place t s =
  let nbuckets = Array.length t.bucket in
  let idx =
    int_of_float ((Array.unsafe_get t.etime s -. t.wheel_t0) *. t.inv_width)
  in
  let idx = if idx < t.cur then t.cur else idx in
  let idx = if idx >= nbuckets then nbuckets - 1 else idx in
  bucket_insert t idx s

(* Reposition the wheel over the earliest pending work and refill it from
   the overflow heap.  Called only when the wheel is empty, so this is
   where the horizon — and the bucket width — may move.  The width chases
   the EMA of inter-pop gaps so each bucket holds O(1) events; the bucket
   count doubles (up to a cap) when the population outgrows it. *)
let rotate t =
  let nbuckets = Array.length t.bucket in
  let nbuckets =
    if t.size > 2 * nbuckets && nbuckets < 65536 then begin
      let target = ref nbuckets in
      while !target < t.size && !target < 65536 do
        target := 2 * !target
      done;
      t.bucket <- Array.make !target (-1);
      t.btail <- Array.make !target (-1);
      !target
    end
    else nbuckets
  in
  let gap = t.fs.(1) in
  let width =
    (* Aim for a few events per bucket; fall back to the current width
       when there is no signal yet (no pops, or all-equal times). *)
    let target = gap *. 4.0 in
    if target > 1e-12 && target < 1e9 then target else t.width
  in
  t.width <- width;
  t.inv_width <- 1.0 /. width;
  t.cur <- 0;
  let t0 = t.etime.(t.hslot.(0)) in
  t.wheel_t0 <- t0;
  t.horizon <- t0 +. (float_of_int nbuckets *. width);
  (* Drain everything now below the horizon into the wheel. *)
  let continue = ref true in
  while !continue && t.hlen > 0 do
    let s = t.hslot.(0) in
    if t.etime.(s) < t.horizon then begin
      ignore (heap_pop t);
      wheel_place t s
    end
    else continue := false
  done

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

let[@inline] add_stamped t ~time ~seq value =
  if t.free = -1 then grow_pool t;
  let s = t.free in
  t.free <- Array.unsafe_get t.enext s;
  Array.unsafe_set t.etime s time;
  Array.unsafe_set t.eseq s seq;
  Array.unsafe_set t.evalue s value;
  t.size <- t.size + 1;
  if time >= t.horizon then
    if t.wheel_len = 0 && t.hlen = 0 then begin
      (* Queue idle and the event is past the wheel's span: re-anchor the
         wheel at this event instead of bouncing it through the heap.
         Safe only when the heap is empty too — it may hold events due
         before [time] that a moved horizon would incorrectly outrank. *)
      t.cur <- 0;
      t.wheel_t0 <- time;
      t.horizon <-
        time +. (float_of_int (Array.length t.bucket) *. t.width);
      bucket_insert t 0 s
    end
    else heap_add t s
  else wheel_place t s

let[@inline] add t ~time value = add_stamped t ~time ~seq:(fresh_seq t) value

(* First nonempty bucket at or after [cur]; the caller guarantees
   wheel_len > 0. Advancing [cur] here is what retires empty buckets. *)
let[@inline] advance_cur t =
  let bucket = t.bucket in
  let cur = ref t.cur in
  while Array.unsafe_get bucket !cur = -1 do
    incr cur
  done;
  t.cur <- !cur;
  !cur

let peek_time t ~into =
  if t.size = 0 then false
  else begin
    (if t.wheel_len > 0 then begin
       let b = advance_cur t in
       into.v <- t.etime.(t.bucket.(b))
     end
     else into.v <- t.etime.(t.hslot.(0)));
    true
  end

let pop t ~into =
  if t.size = 0 then invalid_arg "Sched.pop: empty";
  if t.wheel_len = 0 then rotate t;
  let b = advance_cur t in
  let s = t.bucket.(b) in
  t.bucket.(b) <- Array.unsafe_get t.enext s;
  t.wheel_len <- t.wheel_len - 1;
  t.size <- t.size - 1;
  let time = Array.unsafe_get t.etime s in
  into.v <- time;
  (* Inter-pop gap EMA feeding the width adaptation (unboxed stores). *)
  let fs = t.fs in
  let gap = time -. Array.unsafe_get fs 0 in
  Array.unsafe_set fs 0 time;
  if gap > 0.0 then
    Array.unsafe_set fs 1 ((0.875 *. Array.unsafe_get fs 1) +. (0.125 *. gap));
  let value = Array.unsafe_get t.evalue s in
  (* Recycle the slot; drop the payload pointer so it is not retained. *)
  Array.unsafe_set t.evalue s t.dummy;
  Array.unsafe_set t.enext s t.free;
  t.free <- s;
  value

let clear t =
  (* Release payload pointers in the live prefix only: free slots already
     hold [dummy] (see the module-top invariant). *)
  if t.wheel_len > 0 then
    for b = t.cur to Array.length t.bucket - 1 do
      let s = ref t.bucket.(b) in
      while !s <> -1 do
        let n = t.enext.(!s) in
        t.evalue.(!s) <- t.dummy;
        t.enext.(!s) <- t.free;
        t.free <- !s;
        s := n
      done;
      t.bucket.(b) <- -1
    done;
  for i = 0 to t.hlen - 1 do
    let s = t.hslot.(i) in
    t.evalue.(s) <- t.dummy;
    t.enext.(s) <- t.free;
    t.free <- s
  done;
  t.hlen <- 0;
  t.wheel_len <- 0;
  t.size <- 0;
  t.cur <- 0

(* Introspection for tests and gauges. *)
let wheel_length t = t.wheel_len
let overflow_length t = t.hlen
let bucket_count t = Array.length t.bucket
let bucket_width t = t.width
