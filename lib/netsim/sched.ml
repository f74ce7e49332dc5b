(* Closure-free event scheduler: a rolling calendar queue (timing wheel)
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

   Geometry.  An event due at [t] has the absolute bucket index
   [idx t = trunc ((t - t0) / width)].  The wheel holds the [nbuckets]
   consecutive indices [cur, cur + nbuckets): index [i] lives in physical
   bucket [i land mask], and an event whose index is below [cur] is clamped
   into bucket [cur].  Events at or past [cur + nbuckets] wait in the
   overflow heap.  The wheel rolls: every time [cur] steps over an empty
   bucket the window gains one index at its far end, and heap events that
   now fall inside it migrate into the wheel.  Buckets are singly-linked
   lists threaded through the pool's [enext] array, kept sorted by
   (time, seq); a tail pointer makes the common append O(1).

   Invariants:
     - [idx] is a monotone function of time (IEEE subtraction and
       multiplication round monotonically), so an event in a later bucket
       is never due before one in an earlier bucket, clamped ones included;
     - equal times map to equal buckets, so FIFO ties always meet in one
       sorted list;
     - every heap event has an index at or past [cur + nbuckets], so the
       wheel always holds a prefix of the schedule;
     - only the live prefix of any pool array is meaningful: slots on the
       free list keep stale times/seqs and [clear] never has to touch
       capacity beyond what was used.

   Re-fitting.  The width and bucket count change only on evidence the
   queue sees as it runs, counted since the last re-fit:
     - a sorted insert that walks past more than [walk_limit] entries,
       once the walks add up to more than the queue's size plus its bucket
       count, narrows the width (to the smaller of half the width and 4x
       the EMA of inter-pop gaps) and grows the bucket count to twice the
       queue's size;
     - an insert past the window, once more than that many inserts were
       made and over an eighth of them went past the window, widens the
       window: to twice the queue's size in buckets if there are fewer,
       otherwise to twice the width.
   A re-fit costs O(nbuckets + size), so those thresholds make it follow
   at least as much wasted work as it costs.  It re-anchors the wheel at
   the clock, relinks the wheel's events (already sorted, so each is an
   O(1) append) and migrates the heap's newly covered prefix.  When the
   wheel runs empty, [pop] re-anchors it at the heap's earliest event,
   keeping the width.  An add never moves the wheel. *)

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
  mutable mask : int; (* nbuckets - 1; nbuckets is a power of two *)
  mutable cur : int; (* absolute index of the first possibly-nonempty bucket *)
  mutable wheel_len : int;
  (* Overflow heap of slot ids, ordered by (etime, eseq). *)
  mutable hslot : int array;
  mutable hlen : int;
  mutable hnext : int; (* index of the heap's earliest event; max_int if none *)
  (* Evidence, cumulative; [mark_*] snapshot it at the last re-fit. *)
  mutable adds : int;
  mutable walks : int;
  mutable overflows : int;
  mutable mark_adds : int;
  mutable mark_walks : int;
  mutable mark_overflows : int;
  (* Floats kept unboxed: 0 = last pop time, 1 = EMA of inter-pop gaps,
     2 = t0, 3 = 1 / width, 4 = width. *)
  fs : float array;
}

let default_width = 1e-3
let max_buckets = 65536

(* A sorted insert that walks further than this is evidence that the
   buckets are too wide for the schedule's density. *)
let walk_limit = 8

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ?(nbuckets = 256) ~dummy () =
  if nbuckets <= 0 then invalid_arg "Sched.create: nbuckets must be positive";
  let nbuckets = pow2_at_least (min nbuckets max_buckets) 1 in
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
    mask = nbuckets - 1;
    cur = 0;
    wheel_len = 0;
    hslot = Array.make 16 0;
    hlen = 0;
    hnext = max_int;
    adds = 0;
    walks = 0;
    overflows = 0;
    mark_adds = 0;
    mark_walks = 0;
    mark_overflows = 0;
    fs = [| 0.0; 0.0; 0.0; 1.0 /. default_width; default_width |];
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

(* Fractional bucket index of [time]: below [cur + nbuckets] it belongs to
   the wheel.  NaN compares false with everything, so it overflows. *)
let[@inline] findex t time =
  let fs = t.fs in
  (time -. Array.unsafe_get fs 2) *. Array.unsafe_get fs 3

(* ------------------------------------------------------------------ *)
(* Overflow heap (slot ids keyed by pool time/seq)                     *)
(* ------------------------------------------------------------------ *)

(* Cache the heap minimum's bucket index, so the wheel can tell with one
   integer compare when rolling forward has brought it into range. *)
let set_hnext t =
  if t.hlen = 0 then t.hnext <- max_int
  else
    let f = findex t t.etime.(t.hslot.(0)) in
    t.hnext <- (if f < 4e18 then int_of_float f else max_int)

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
  done;
  if !i = 0 then set_hnext t

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
  set_hnext t;
  root

(* ------------------------------------------------------------------ *)
(* Wheel                                                               *)
(* ------------------------------------------------------------------ *)

(* Sorted insert of slot [s] into bucket [b]: skip everything due before
   [s] (equal-time earlier seqs included, preserving FIFO).  Appending at
   the tail and prepending at the head are O(1); anything else walks the
   list.  Returns the entries walked past. *)
let bucket_insert t b s =
  t.wheel_len <- t.wheel_len + 1;
  let head = Array.unsafe_get t.bucket b in
  if head = -1 then begin
    Array.unsafe_set t.enext s (-1);
    Array.unsafe_set t.bucket b s;
    Array.unsafe_set t.btail b s;
    0
  end
  else
    let tail = Array.unsafe_get t.btail b in
    if slot_before t tail s then begin
      Array.unsafe_set t.enext s (-1);
      Array.unsafe_set t.enext tail s;
      Array.unsafe_set t.btail b s;
      0
    end
    else if slot_before t s head then begin
      Array.unsafe_set t.enext s head;
      Array.unsafe_set t.bucket b s;
      0
    end
    else begin
      let p = ref head in
      let steps = ref 0 in
      let continue = ref true in
      while !continue do
        let n = Array.unsafe_get t.enext !p in
        if n <> -1 && slot_before t n s then begin
          p := n;
          incr steps
        end
        else continue := false
      done;
      Array.unsafe_set t.enext s (Array.unsafe_get t.enext !p);
      Array.unsafe_set t.enext !p s;
      t.walks <- t.walks + !steps;
      !steps
    end

(* Place slot [s], whose fractional index [f] is below the window's end,
   into its bucket (clamped up to [cur]). *)
let[@inline] wheel_place t s f =
  let idx = int_of_float f in
  let idx = if idx < t.cur then t.cur else idx in
  bucket_insert t (idx land t.mask) s

(* Move every heap event the window now covers into the wheel.  They come
   out in order and after everything already in the wheel, so each is an
   append. *)
let migrate t =
  while t.hnext < t.cur + t.mask + 1 do
    let s = heap_pop t in
    ignore (wheel_place t s (findex t (Array.unsafe_get t.etime s)))
  done

(* First nonempty bucket at or after [cur]; the caller guarantees
   wheel_len > 0.  Stepping over an empty bucket rolls the window one
   index forward, which may bring the heap's minimum into range. *)
let[@inline never] advance_slow t =
  let bucket = t.bucket and mask = t.mask in
  let cur = ref t.cur in
  while Array.unsafe_get bucket (!cur land mask) = -1 do
    incr cur;
    if t.hnext <= !cur + mask then begin
      t.cur <- !cur;
      migrate t
    end
  done;
  t.cur <- !cur;
  !cur land mask

let[@inline] advance_cur t =
  let b = t.cur land t.mask in
  if Array.unsafe_get t.bucket b <> -1 then b else advance_slow t

(* Re-anchor the wheel at [anchor] with a new geometry.  The wheel's
   events are unlinked bucket by bucket, which yields them in (time, seq)
   order, and placed again; then the heap's newly covered prefix
   migrates.  [anchor] must not be after any pending event. *)
let refit t ~anchor ~width ~nbuckets =
  let chain = ref (-1) and last = ref (-1) in
  if t.wheel_len > 0 then
    for i = t.cur to t.cur + t.mask do
      let b = i land t.mask in
      let head = t.bucket.(b) in
      if head <> -1 then begin
        if !last = -1 then chain := head else t.enext.(!last) <- head;
        last := t.btail.(b);
        t.bucket.(b) <- -1
      end
    done;
  if nbuckets <> t.mask + 1 then begin
    t.bucket <- Array.make nbuckets (-1);
    t.btail <- Array.make nbuckets (-1)
  end;
  t.mask <- nbuckets - 1;
  t.cur <- 0;
  t.wheel_len <- 0;
  let fs = t.fs in
  fs.(2) <- anchor;
  fs.(3) <- 1.0 /. width;
  fs.(4) <- width;
  if !last <> -1 then t.enext.(!last) <- -1;
  let s = ref !chain in
  while !s <> -1 do
    let next = t.enext.(!s) in
    let f = findex t t.etime.(!s) in
    if f < float_of_int nbuckets then ignore (wheel_place t !s f)
    else heap_add t !s;
    s := next
  done;
  set_hnext t;
  migrate t

let grown_buckets t = min max_buckets (pow2_at_least (2 * t.size) (t.mask + 1))

(* A re-fit on evidence, while the wheel may be in use.  The anchor is the
   clock unless some event is due before it, so inserts due between the
   clock and the first event still spread over buckets.  The evidence
   window restarts here. *)
let refit_on_evidence t ~width ~nbuckets =
  let first =
    if t.wheel_len > 0 then t.etime.(t.bucket.(advance_cur t))
    else t.etime.(t.hslot.(0))
  in
  let now = t.fs.(0) in
  let anchor = if now <= first then now else first in
  if Float.is_finite anchor then refit t ~anchor ~width ~nbuckets;
  t.mark_adds <- t.adds;
  t.mark_walks <- t.walks;
  t.mark_overflows <- t.overflows

(* Crowded buckets: narrow toward 4x the inter-pop gap, at least halving. *)
let[@inline never] walked_far t =
  if t.walks - t.mark_walks > t.size + t.mask then begin
    let width = t.fs.(4) in
    let target = 4.0 *. t.fs.(1) in
    let width =
      if target > 1e-12 && target < width /. 2.0 then target
      else Float.max 1e-12 (width /. 2.0)
    in
    refit_on_evidence t ~width ~nbuckets:(grown_buckets t)
  end

(* An insert past the window.  Once over an eighth of the inserts since
   the last re-fit have gone this way, widen the window: more buckets if
   the queue outgrew them, else wider ones. *)
let[@inline never] overflow t s =
  t.overflows <- t.overflows + 1;
  heap_add t s;
  let adds = t.adds - t.mark_adds in
  if adds > t.size + t.mask && 8 * (t.overflows - t.mark_overflows) > adds
  then begin
    let nbuckets = grown_buckets t in
    let width = if nbuckets > t.mask + 1 then t.fs.(4) else 2.0 *. t.fs.(4) in
    refit_on_evidence t ~width ~nbuckets
  end

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
  t.adds <- t.adds + 1;
  let f = findex t time in
  if f < float_of_int (t.cur + t.mask + 1) then begin
    if wheel_place t s f > walk_limit then walked_far t
  end
  else overflow t s

let[@inline] add t ~time value = add_stamped t ~time ~seq:(fresh_seq t) value

(* The wheel is empty: re-anchor it at the heap's earliest event.  False
   when that time is not finite, so the wheel cannot index it; [pop] then
   takes the heap's minimum directly. *)
let[@inline never] refill t =
  let first = t.etime.(t.hslot.(0)) in
  Float.is_finite first
  && begin
       refit t ~anchor:first ~width:t.fs.(4) ~nbuckets:(grown_buckets t);
       t.wheel_len > 0
     end

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
  let s =
    if t.wheel_len > 0 || refill t then begin
      let b = advance_cur t in
      let s = Array.unsafe_get t.bucket b in
      Array.unsafe_set t.bucket b (Array.unsafe_get t.enext s);
      t.wheel_len <- t.wheel_len - 1;
      s
    end
    else heap_pop t
  in
  t.size <- t.size - 1;
  let time = Array.unsafe_get t.etime s in
  into.v <- time;
  (* Inter-pop gap EMA, the target width of a narrowing re-fit (unboxed
     stores). *)
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
    for b = 0 to t.mask do
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
  t.hnext <- max_int;
  t.wheel_len <- 0;
  t.size <- 0

(* Introspection for tests and gauges. *)
let wheel_length t = t.wheel_len
let overflow_length t = t.hlen
let bucket_count t = t.mask + 1
let bucket_width t = t.fs.(4)
let walk_steps t = t.walks
let overflow_inserts t = t.overflows
