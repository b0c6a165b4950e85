type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : float }

type buckets = Log2 | Linear of { width : int; buckets : int }

let max_log2_buckets = 63

type histogram = {
  h_name : string;
  h_kind : buckets;
  h_counts : int array;
  mutable h_sum : int;
  mutable h_total : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type registry = { tbl : (string, metric) Hashtbl.t }

type hist_snapshot = {
  kind : buckets;
  counts : int array;
  sum : int;
  total : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let create () = { tbl = Hashtbl.create 32 }

let counter reg name =
  match Hashtbl.find_opt reg.tbl name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace reg.tbl name (Counter c);
    c

let gauge reg name =
  match Hashtbl.find_opt reg.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
    let g = { g_name = name; g_value = 0. } in
    Hashtbl.replace reg.tbl name (Gauge g);
    g

let num_buckets = function
  | Log2 -> max_log2_buckets
  | Linear { buckets; _ } ->
    if buckets <= 0 then invalid_arg "Metrics: Linear needs buckets > 0";
    buckets

let histogram reg ~buckets name =
  match buckets with
  | Linear { width; _ } when width <= 0 ->
    Error "Metrics: Linear needs width > 0"
  | Linear { buckets = b; _ } when b <= 0 ->
    Error "Metrics: Linear needs buckets > 0"
  | _ -> (
    match Hashtbl.find_opt reg.tbl name with
    | Some (Histogram h) ->
      if h.h_kind <> buckets then
        Error
          ("Metrics.histogram: " ^ name ^ " re-registered with different buckets")
      else Ok h
    | Some _ -> Error ("Metrics.histogram: " ^ name ^ " is not a histogram")
    | None ->
      let h =
        {
          h_name = name;
          h_kind = buckets;
          h_counts = Array.make (num_buckets buckets) 0;
          h_sum = 0;
          h_total = 0;
        }
      in
      Hashtbl.replace reg.tbl name (Histogram h);
      Ok h)

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let value c = c.c_value

let set g v = g.g_value <- v

let set_max g v = if v > g.g_value then g.g_value <- v

let gauge_value g = g.g_value

(* floor(log2 v) in O(1) via the number of leading zeros *)
let log2_floor v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_index kind v =
  let v = Int.max 0 v in
  match kind with
  | Log2 -> if v = 0 then 0 else Int.min (max_log2_buckets - 1) (log2_floor v + 1)
  | Linear { width; buckets } -> Int.min (buckets - 1) (v / width)

let bucket_bounds kind i =
  match kind with
  | Log2 ->
    (* bucket 0 = {0}; bucket i>=1 = [2^(i-1), 2^i); the last bucket is
       open-ended (its lower bound still fits: 2^61 <= max_int) *)
    if i = 0 then (0, 1)
    else if i >= max_log2_buckets - 1 then (1 lsl (max_log2_buckets - 2), max_int)
    else (1 lsl (i - 1), 1 lsl i)
  | Linear { width; buckets } ->
    if i >= buckets - 1 then ((buckets - 1) * width, max_int)
    else (i * width, (i + 1) * width)

let observe h v =
  let v = Int.max 0 v in
  let i = bucket_index h.h_kind v in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum + v;
  h.h_total <- h.h_total + 1

let hist_count h = h.h_total

let hist_sum h = h.h_sum

let snapshot reg =
  let cs = ref [] and gs = ref [] and hs = ref [] in
  Hashtbl.iter
    (fun name -> function
      | Counter c -> cs := (name, c.c_value) :: !cs
      | Gauge g -> gs := (name, g.g_value) :: !gs
      | Histogram h ->
        hs :=
          ( name,
            {
              kind = h.h_kind;
              counts = Array.copy h.h_counts;
              sum = h.h_sum;
              total = h.h_total;
            } )
          :: !hs)
    reg.tbl;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !cs;
    gauges = List.sort by_name !gs;
    histograms = List.sort by_name !hs;
  }

(* merge two sorted assoc lists, combining values under equal keys *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
    let c = String.compare ka kb in
    if c = 0 then (ka, combine ka va vb) :: merge_assoc combine ta tb
    else if c < 0 then (ka, va) :: merge_assoc combine ta b
    else (kb, vb) :: merge_assoc combine a tb

let merge_hist name a b =
  if a.kind <> b.kind then
    invalid_arg ("Metrics.merge: histogram " ^ name ^ " has incompatible buckets");
  {
    kind = a.kind;
    counts = Array.mapi (fun i v -> v + b.counts.(i)) a.counts;
    sum = a.sum + b.sum;
    total = a.total + b.total;
  }

let merge a b =
  {
    counters = merge_assoc (fun _ x y -> x + y) a.counters b.counters;
    gauges = merge_assoc (fun _ x y -> Float.max x y) a.gauges b.gauges;
    histograms = merge_assoc merge_hist a.histograms b.histograms;
  }

let merge_into ~into src =
  Hashtbl.iter
    (fun name -> function
      | Counter c -> add (counter into name) c.c_value
      | Gauge g -> set_max (gauge into name) g.g_value
      | Histogram h -> (
        (* merge_into keeps its documented raise: a bucketing conflict
           between two live registries is a programming error, not an
           input error *)
        match histogram into ~buckets:h.h_kind name with
        | Error e -> invalid_arg e
        | Ok dst ->
          Array.iteri
            (fun i v -> dst.h_counts.(i) <- dst.h_counts.(i) + v)
            h.h_counts;
          dst.h_sum <- dst.h_sum + h.h_sum;
          dst.h_total <- dst.h_total + h.h_total))
    src.tbl

let hist_to_json (h : hist_snapshot) =
  (* trim trailing empty buckets so the export stays compact *)
  let last = ref (-1) in
  Array.iteri (fun i v -> if v > 0 then last := i) h.counts;
  let counts = Array.sub h.counts 0 (!last + 1) in
  Json.obj
    [
      ( "kind",
        match h.kind with
        | Log2 -> Json.String "log2"
        | Linear { width; buckets } ->
          Json.Obj [ ("linear_width", Json.Int width); ("buckets", Json.Int buckets) ]
      );
      ("counts", Json.int_array counts);
      ("sum", Json.Int h.sum);
      ("total", Json.Int h.total);
    ]

let to_json (s : snapshot) =
  Json.obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) s.histograms) );
    ]

(* --- decoding (the sweep aggregator re-reads per-job stats files) --- *)

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* ys = map_result f tl in
    Ok (y :: ys)

let fields_of ctx = function
  | Json.Obj fields -> Ok fields
  | _ -> Error ("Metrics.snapshot_of_json: " ^ ctx ^ " is not an object")

let int_of ctx = function
  | Json.Int i -> Ok i
  | _ -> Error ("Metrics.snapshot_of_json: " ^ ctx ^ " is not an integer")

let float_of ctx = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error ("Metrics.snapshot_of_json: " ^ ctx ^ " is not a number")

let hist_of_json name j =
  let* fields = fields_of ("histogram " ^ name) j in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> Ok v
    | None -> Error ("Metrics.snapshot_of_json: histogram " ^ name ^ " lacks " ^ k)
  in
  let* kind =
    let* k = get "kind" in
    match k with
    | Json.String "log2" -> Ok Log2
    | Json.Obj kf -> (
      match (List.assoc_opt "linear_width" kf, List.assoc_opt "buckets" kf) with
      | Some (Json.Int width), Some (Json.Int buckets) when width > 0 && buckets > 0
        -> Ok (Linear { width; buckets })
      | _ -> Error ("Metrics.snapshot_of_json: bad linear kind in " ^ name))
    | _ -> Error ("Metrics.snapshot_of_json: bad kind in " ^ name)
  in
  let* counts =
    let* c = get "counts" in
    match c with
    | Json.List l -> map_result (int_of ("count of " ^ name)) l
    | _ -> Error ("Metrics.snapshot_of_json: counts of " ^ name ^ " is not a list")
  in
  let n = num_buckets kind in
  if List.length counts > n then
    Error ("Metrics.snapshot_of_json: " ^ name ^ " has more counts than buckets")
  else begin
    (* the encoder trims trailing empty buckets; restore the full width *)
    let full = Array.make n 0 in
    List.iteri (fun i v -> full.(i) <- v) counts;
    let* sum = Result.bind (get "sum") (int_of ("sum of " ^ name)) in
    let* total = Result.bind (get "total") (int_of ("total of " ^ name)) in
    Ok { kind; counts = full; sum; total }
  end

let snapshot_of_json j =
  let* fields = fields_of "snapshot" j in
  let section k decode =
    match List.assoc_opt k fields with
    | None -> Ok []
    | Some (Json.Obj entries) ->
      map_result (fun (name, v) -> Result.map (fun d -> (name, d)) (decode name v)) entries
    | Some _ -> Error ("Metrics.snapshot_of_json: " ^ k ^ " is not an object")
  in
  let by_name (a, _) (b, _) = String.compare a b in
  let* counters = section "counters" (fun name v -> int_of ("counter " ^ name) v) in
  let* gauges = section "gauges" (fun name v -> float_of ("gauge " ^ name) v) in
  let* histograms = section "histograms" hist_of_json in
  Ok
    {
      counters = List.sort by_name counters;
      gauges = List.sort by_name gauges;
      histograms = List.sort by_name histograms;
    }
