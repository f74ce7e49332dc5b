type labels = (string * string) list

(* Canonical label rendering: sorted by key, "k=v" joined with ",". Keys the
   metric table and orders exports, so it must be total and stable. *)
let canonical_labels labels =
  List.sort
    (fun (a, _) (b, _) ->
      match String.compare a b with 0 -> 0 | c -> c)
    labels

let labels_to_string labels =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ v) (canonical_labels labels))

let key_of ~name ~labels = name ^ "{" ^ labels_to_string labels ^ "}"

(* Log-scale histogram: bucket [i] counts observations v with
   2^(i-1+min_exp) < v <= 2^(i+min_exp); slot 0 is v <= 0, the last slot is
   overflow. frexp gives the exponent exactly, no libm rounding to worry
   about. *)
let hist_min_exp = -30 (* smallest bucket: le 2^-30 ~ 0.93 ns *)

let hist_max_exp = 30 (* largest finite bucket: le 2^30 ~ 1.07e9 *)

let hist_slots = hist_max_exp - hist_min_exp + 3 (* zero + finite + overflow *)

let bucket_of v =
  if v <= 0.0 then 0
  else
    let _, e = Float.frexp v in
    (* 2^(e-1) <= v < 2^e, except exact powers of two where frexp reports
       e = log2 v + 1; either way v <= 2^e, so [e] indexes the bucket. *)
    if e > hist_max_exp then hist_slots - 1
    else if e < hist_min_exp then 1
    else e - hist_min_exp + 1

let bucket_upper_bound slot =
  if slot = 0 then 0.0
  else if slot = hist_slots - 1 then Float.infinity
  else Float.ldexp 1.0 (slot - 1 + hist_min_exp)

type hist_cell = {
  mutable h_count : int;
  mutable h_sum : float;
  h_buckets : int array;
}

(* Atomic: in a partitioned run, cells without a node label (the
   backends' per-packet counters) are bumped from several domains at
   once, and a plain increment would lose updates. *)
type counter_cell = int Atomic.t

type gauge_cell = {
  mutable g_value : float;
  mutable g_fn : (unit -> float) option;
}

type data =
  | Counter of counter_cell
  | Gauge of gauge_cell
  | Histogram of hist_cell

type metric = {
  m_name : string;
  m_labels : labels; (* canonical order *)
  m_help : string;
  m_volatile : bool;
  m_data : data;
}

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }
let default = create ()
let reset t = Hashtbl.reset t.table

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_add t ~name ~labels ~help ~volatile make =
  let labels = canonical_labels labels in
  let key = key_of ~name ~labels in
  match Hashtbl.find_opt t.table key with
  | Some metric -> metric
  | None ->
      let metric =
        {
          m_name = name;
          m_labels = labels;
          m_help = help;
          m_volatile = volatile;
          m_data = make ();
        }
      in
      Hashtbl.replace t.table key metric;
      metric

let wrong_kind metric expected =
  invalid_arg
    (Printf.sprintf "Obs.Registry: metric %s is a %s, not a %s"
       (key_of ~name:metric.m_name ~labels:metric.m_labels)
       (kind_name metric.m_data) expected)

type counter = counter_cell
type gauge = gauge_cell
type histogram = hist_cell

let counter ?(registry = default) ?(labels = []) ?(help = "") ?(volatile = false)
    name =
  let metric =
    find_or_add registry ~name ~labels ~help ~volatile (fun () ->
        Counter (Atomic.make 0))
  in
  match metric.m_data with
  | Counter cell -> cell
  | _ -> wrong_kind metric "counter"

let incr counter = Atomic.incr counter

let add counter n =
  if n < 0 then invalid_arg "Obs.Registry.add: counters only go up";
  ignore (Atomic.fetch_and_add counter n)

let count counter = Atomic.get counter

let gauge ?(registry = default) ?(labels = []) ?(help = "") ?(volatile = false)
    name =
  let metric =
    find_or_add registry ~name ~labels ~help ~volatile (fun () ->
        Gauge { g_value = 0.0; g_fn = None })
  in
  match metric.m_data with
  | Gauge cell -> cell
  | _ -> wrong_kind metric "gauge"

let set gauge v = gauge.g_value <- v
let set_fn gauge f = gauge.g_fn <- Some f

let gauge_value gauge =
  match gauge.g_fn with Some f -> f () | None -> gauge.g_value

let histogram ?(registry = default) ?(labels = []) ?(help = "") name =
  let metric =
    find_or_add registry ~name ~labels ~help ~volatile:false (fun () ->
        Histogram
          { h_count = 0; h_sum = 0.0; h_buckets = Array.make hist_slots 0 })
  in
  match metric.m_data with
  | Histogram cell -> cell
  | _ -> wrong_kind metric "histogram"

let observe histogram v =
  histogram.h_count <- histogram.h_count + 1;
  histogram.h_sum <- histogram.h_sum +. v;
  let slot = bucket_of v in
  histogram.h_buckets.(slot) <- histogram.h_buckets.(slot) + 1

let observations histogram = histogram.h_count

let histogram_slots = hist_slots

(* Integer twin of [bucket_of]: for v > 0, the bit length of v equals the
   exponent frexp reports for [float_of_int v] (exact for v < 2^53, which
   covers every byte count the simulator can produce), so both functions
   agree on the slot without going through floating point. *)
let[@inline] bucket_of_int v =
  if v <= 0 then 0
  else begin
    let e = ref 0 in
    let x = ref v in
    while !x > 0 do
      e := !e + 1;
      x := !x lsr 1
    done;
    (* e >= 1 > hist_min_exp, so no underflow branch. *)
    if !e > hist_max_exp then hist_slots - 1 else !e - hist_min_exp + 1
  end

(* Merge a batch of pre-bucketed observations, e.g. a link direction's
   per-run backlog samples accumulated in raw arrays. *)
let observe_bulk histogram ~counts ~sum =
  if Array.length counts <> hist_slots then
    invalid_arg
      (Printf.sprintf "Obs.Registry.observe_bulk: expected %d slots, got %d"
         hist_slots (Array.length counts));
  let total = ref 0 in
  for slot = 0 to hist_slots - 1 do
    let n = Array.unsafe_get counts slot in
    if n > 0 then begin
      total := !total + n;
      histogram.h_buckets.(slot) <- histogram.h_buckets.(slot) + n
    end
  done;
  if !total > 0 then begin
    histogram.h_count <- histogram.h_count + !total;
    histogram.h_sum <- histogram.h_sum +. sum
  end

(* ------------------------------------------------------------------ *)
(* Typed reads                                                         *)
(* ------------------------------------------------------------------ *)

(* Read-only lookup: never creates a cell, so probing for a metric that no
   component has registered stays side-effect free. *)
let lookup t ~name ~labels =
  Hashtbl.find_opt t.table (key_of ~name ~labels:(canonical_labels labels))

let quantile histogram q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Obs.Registry.quantile: q outside [0, 1]";
  if histogram.h_count = 0 then 0.0
  else begin
    (* Smallest slot whose cumulative count reaches rank ceil(q * n); the
       answer is that bucket's upper bound, the same resolution the
       exported bucket list offers. *)
    let target =
      let rank =
        int_of_float (Float.ceil (q *. float_of_int histogram.h_count))
      in
      if rank < 1 then 1 else rank
    in
    let slot = ref (hist_slots - 1) in
    let acc = ref 0 in
    (try
       for s = 0 to hist_slots - 1 do
         acc := !acc + histogram.h_buckets.(s);
         if !acc >= target then begin
           slot := s;
           raise Exit
         end
       done
     with Exit -> ());
    bucket_upper_bound !slot
  end

let read_counter ?(registry = default) ?(labels = []) name =
  match lookup registry ~name ~labels with
  | None -> None
  | Some { m_data = Counter cell; _ } -> Some (Atomic.get cell)
  | Some metric -> wrong_kind metric "counter"

let read_gauge ?(registry = default) ?(labels = []) name =
  match lookup registry ~name ~labels with
  | None -> None
  | Some { m_data = Gauge cell; _ } ->
      Some (match cell.g_fn with Some f -> f () | None -> cell.g_value)
  | Some metric -> wrong_kind metric "gauge"

let read_histogram ?(registry = default) ?(labels = []) name =
  match lookup registry ~name ~labels with
  | None -> None
  | Some { m_data = Histogram cell; _ } -> Some (cell.h_count, cell.h_sum)
  | Some metric -> wrong_kind metric "histogram"

let read_quantile ?(registry = default) ?(labels = []) ~q name =
  match lookup registry ~name ~labels with
  | None -> None
  | Some { m_data = Histogram cell; _ } -> Some (quantile cell q)
  | Some metric -> wrong_kind metric "histogram"

(* ------------------------------------------------------------------ *)
(* Snapshots and exports                                               *)
(* ------------------------------------------------------------------ *)

type sample =
  | Scounter of int
  | Sgauge of float
  | Shistogram of {
      hs_count : int;
      hs_sum : float;
      hs_buckets : (float * int) list; (* (upper bound, count), non-empty *)
    }

type entry = { e_name : string; e_labels : labels; e_sample : sample }
type snapshot = entry list

let sample_of metric =
  match metric.m_data with
  | Counter cell -> Scounter (Atomic.get cell)
  | Gauge cell ->
      Sgauge (match cell.g_fn with Some f -> f () | None -> cell.g_value)
  | Histogram cell ->
      let buckets = ref [] in
      for slot = hist_slots - 1 downto 0 do
        if cell.h_buckets.(slot) > 0 then
          buckets := (bucket_upper_bound slot, cell.h_buckets.(slot)) :: !buckets
      done;
      Shistogram
        { hs_count = cell.h_count; hs_sum = cell.h_sum; hs_buckets = !buckets }

let snapshot ?(include_volatile = false) t =
  Hashtbl.fold
    (fun key metric acc ->
      if metric.m_volatile && not include_volatile then acc
      else (key, metric) :: acc)
    t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (_, metric) ->
         {
           e_name = metric.m_name;
           e_labels = metric.m_labels;
           e_sample = sample_of metric;
         })

let entry_json entry =
  let labels = List.map (fun (k, v) -> (k, Json.String v)) entry.e_labels in
  let base = [ ("name", Json.String entry.e_name) ] in
  let base =
    if labels = [] then base else base @ [ ("labels", Json.Obj labels) ]
  in
  match entry.e_sample with
  | Scounter n ->
      Json.Obj
        (base @ [ ("type", Json.String "counter"); ("value", Json.Int n) ])
  | Sgauge v ->
      Json.Obj
        (base @ [ ("type", Json.String "gauge"); ("value", Json.Float v) ])
  | Shistogram h ->
      Json.Obj
        (base
        @ [
            ("type", Json.String "histogram");
            ("count", Json.Int h.hs_count);
            ("sum", Json.Float h.hs_sum);
            ( "buckets",
              Json.List
                (List.map
                   (fun (le, n) ->
                     Json.Obj [ ("le", Json.Float le); ("count", Json.Int n) ])
                   h.hs_buckets) );
          ])

let snapshot_json snap = Json.List (List.map entry_json snap)

let to_json ?include_volatile t =
  Json.Obj
    [
      ("format", Json.String "planp-metrics/1");
      ("metrics", snapshot_json (snapshot ?include_volatile t));
    ]

let to_json_string ?include_volatile t =
  Json.to_string (to_json ?include_volatile t)

(* CSV: one row per scalar; histograms flatten to count/sum/le_* rows. *)
let to_csv_string ?include_volatile t =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "name,labels,type,field,value\n";
  let quote s =
    if String.contains s ',' || String.contains s '"' then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let row entry kind field value =
    Buffer.add_string buffer
      (Printf.sprintf "%s,%s,%s,%s,%s\n" (quote entry.e_name)
         (quote (labels_to_string entry.e_labels))
         kind field value)
  in
  List.iter
    (fun entry ->
      match entry.e_sample with
      | Scounter n -> row entry "counter" "value" (string_of_int n)
      | Sgauge v -> row entry "gauge" "value" (Json.float_repr v)
      | Shistogram h ->
          row entry "histogram" "count" (string_of_int h.hs_count);
          row entry "histogram" "sum" (Json.float_repr h.hs_sum);
          List.iter
            (fun (le, n) ->
              row entry "histogram"
                ("le_" ^ Json.float_repr le)
                (string_of_int n))
            h.hs_buckets)
    (snapshot ?include_volatile t);
  Buffer.contents buffer

let pp ?include_volatile fmt t =
  List.iter
    (fun entry ->
      let name =
        if entry.e_labels = [] then entry.e_name
        else entry.e_name ^ "{" ^ labels_to_string entry.e_labels ^ "}"
      in
      match entry.e_sample with
      | Scounter n -> Format.fprintf fmt "%-56s %12d@." name n
      | Sgauge v -> Format.fprintf fmt "%-56s %12s@." name (Json.float_repr v)
      | Shistogram h ->
          Format.fprintf fmt "%-56s %12s@." name
            (Printf.sprintf "n=%d sum=%s" h.hs_count (Json.float_repr h.hs_sum)))
    (snapshot ?include_volatile t)
