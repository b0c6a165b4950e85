type scheduler = Fr_fcfs | Fcfs

type row_policy = Open_page | Closed_page

(* Each bank's queue is a set of parallel int arrays in arrival order
   (index 0 oldest), so enqueue, pick and issue allocate nothing once the
   arrays have grown to the run's peak depth.  A bank's FR-FCFS candidate
   is cached as a queue index with its service time; it depends only on
   the bank's queue and open row, and on which side of the drain
   watermark the pending-write count sits, so it goes stale only on an
   enqueue or issue on that bank or a watermark crossing.  A sweep then
   costs one start-time computation per non-empty bank. *)
type t = {
  timing : Timing.t;
  banks : int;
  channels : int;
  scheduler : scheduler;
  row_policy : row_policy;
  depth_hook : (now:int -> depth:int -> unit) option;
  open_row : int array;  (** -1 = no open row *)
  bank_free : int array;
  bus_free : int array;  (** per channel; a bank belongs to bank mod channels *)
  q_id : int array array;
  q_arrival : int array array;
  q_row : int array array;
  q_write : bool array array;
  q_len : int array;
  cand : int array;  (** queue index of the bank's candidate; -1 = stale *)
  cand_service : int array;
  mutable best_bank : int;  (** result of the last {!sweep} *)
  mutable wake : int;
      (** earliest start found by the last sweep (max_int: queue empty);
          min_int once an enqueue has made it stale *)
  (* completions of the last [advance], as parallel arrays *)
  mutable c_id : int array;
  mutable c_start : int array;
  mutable c_finish : int array;
  mutable c_queue : int array;
  mutable c_hit : bool array;
  mutable c_len : int;
  mutable num_pending : int;
  mutable num_writes : int;  (** pending writes, across banks *)
  mutable num_served : int;
  mutable num_row_hits : int;
  mutable max_pending : int;
  (* time-integral of queue length, for the occupancy statistic: an int,
     so an update boxes no float (it stays far below 2^53, so its
     conversion to float is exact) *)
  mutable occ_integral : int;
  mutable occ_last_t : int;
  mutable occ_count : int;
}

let initial_depth = 8

let create ?(timing = Timing.ddr3_1600) ?(channels = 1) ?(scheduler = Fr_fcfs)
    ?(row_policy = Open_page) ?depth_hook ~banks () =
  if banks <= 0 || channels <= 0 then invalid_arg "Fr_fcfs.create";
  let per_bank v = Array.init banks (fun _ -> Array.make initial_depth v) in
  {
    timing;
    banks;
    channels;
    scheduler;
    row_policy;
    depth_hook;
    open_row = Array.make banks (-1);
    bank_free = Array.make banks 0;
    bus_free = Array.make channels 0;
    q_id = per_bank 0;
    q_arrival = per_bank 0;
    q_row = per_bank 0;
    q_write = per_bank false;
    q_len = Array.make banks 0;
    cand = Array.make banks (-1);
    cand_service = Array.make banks 0;
    best_bank = -1;
    wake = max_int;
    c_id = Array.make initial_depth 0;
    c_start = Array.make initial_depth 0;
    c_finish = Array.make initial_depth 0;
    c_queue = Array.make initial_depth 0;
    c_hit = Array.make initial_depth false;
    c_len = 0;
    num_pending = 0;
    num_writes = 0;
    num_served = 0;
    num_row_hits = 0;
    max_pending = 0;
    occ_integral = 0;
    occ_last_t = 0;
    occ_count = 0;
  }

let note_depth t now =
  if t.num_pending > t.max_pending then t.max_pending <- t.num_pending;
  match t.depth_hook with
  | None -> ()
  | Some f -> f ~now ~depth:t.num_pending

let occ_touch t now =
  if now > t.occ_last_t then begin
    t.occ_integral <- t.occ_integral + (t.occ_count * (now - t.occ_last_t));
    t.occ_last_t <- now
  end

let write_drain_watermark = 16

(* the pool choice of every bank flips when the pending-write count
   crosses the watermark *)
let crossed_watermark t = Array.fill t.cand 0 t.banks (-1)

let grow a len v =
  let b = Array.make (2 * len) v in
  Array.blit a 0 b 0 len;
  b

let enqueue t ~now ~bank ~row ?(write = false) ~id () =
  if bank < 0 || bank >= t.banks then invalid_arg "Fr_fcfs.enqueue";
  occ_touch t now;
  t.occ_count <- t.occ_count + 1;
  t.num_pending <- t.num_pending + 1;
  if write then begin
    t.num_writes <- t.num_writes + 1;
    if t.num_writes = write_drain_watermark then crossed_watermark t
  end;
  let k = t.q_len.(bank) in
  if k = Array.length t.q_id.(bank) then begin
    t.q_id.(bank) <- grow t.q_id.(bank) k 0;
    t.q_arrival.(bank) <- grow t.q_arrival.(bank) k 0;
    t.q_row.(bank) <- grow t.q_row.(bank) k 0;
    t.q_write.(bank) <- grow t.q_write.(bank) k false
  end;
  t.q_id.(bank).(k) <- id;
  t.q_arrival.(bank).(k) <- now;
  t.q_row.(bank).(k) <- row;
  t.q_write.(bank).(k) <- write;
  t.q_len.(bank) <- k + 1;
  t.cand.(bank) <- -1;
  t.wake <- min_int;
  note_depth t now

(* FR-FCFS choice for one bank: among reads, the oldest row hit, else the
   oldest read.  Writes are drained only when the bank has no pending read
   or the write queue exceeds the drain watermark (read priority with
   opportunistic write drain, as in real controllers); in drain mode the
   side whose oldest request arrived first is served.  One pass finds the
   oldest read and write and the oldest row hit of each. *)
let pick t bank =
  let rows = t.q_row.(bank) and writes = t.q_write.(bank) in
  let open_row = t.open_row.(bank) in
  let first_read = ref (-1) and first_write = ref (-1) in
  let hit_read = ref (-1) and hit_write = ref (-1) in
  for i = 0 to t.q_len.(bank) - 1 do
    if writes.(i) then begin
      if !first_write < 0 then first_write := i;
      if !hit_write < 0 && rows.(i) = open_row then hit_write := i
    end
    else begin
      if !first_read < 0 then first_read := i;
      if !hit_read < 0 && rows.(i) = open_row then hit_read := i
    end
  done;
  let use_writes =
    !first_read < 0
    || !first_write >= 0
       && t.num_writes >= write_drain_watermark
       && t.q_arrival.(bank).(!first_write) < t.q_arrival.(bank).(!first_read)
  in
  let oldest = if use_writes then !first_write else !first_read in
  let hit = if use_writes then !hit_write else !hit_read in
  let k =
    match t.scheduler with
    | Fcfs -> oldest
    | Fr_fcfs -> if hit >= 0 then hit else oldest
  in
  let row = rows.(k) in
  t.cand.(bank) <- k;
  t.cand_service.(bank) <-
    (if open_row = row then t.timing.Timing.row_hit
     else if open_row = -1 then t.timing.Timing.row_empty
     else t.timing.Timing.row_conflict)

(* Earliest feasible start of the candidate of a non-empty [bank],
   accounting for the bank being busy and the data bus serializing the
   final burst. *)
let start_of t bank =
  if t.cand.(bank) < 0 then pick t bank;
  let s = Int.max t.q_arrival.(bank).(t.cand.(bank)) t.bank_free.(bank) in
  (* the burst occupies the channel bus during the last [burst] cycles *)
  Int.max s
    (t.bus_free.(bank mod t.channels)
    - (t.cand_service.(bank) - t.timing.Timing.burst))

(* The bank whose candidate can start earliest (lowest bank on ties) goes
   to [best_bank], -1 when every queue is empty; returns its start, or
   max_int. *)
let sweep t =
  let best = ref max_int in
  t.best_bank <- -1;
  for b = 0 to t.banks - 1 do
    if t.q_len.(b) > 0 then begin
      let s = start_of t b in
      if s < !best then begin
        best := s;
        t.best_bank <- b
      end
    end
  done;
  !best

let record_completion t ~id ~start ~finish ~queue ~hit =
  let n = t.c_len in
  if n = Array.length t.c_id then begin
    t.c_id <- grow t.c_id n 0;
    t.c_start <- grow t.c_start n 0;
    t.c_finish <- grow t.c_finish n 0;
    t.c_queue <- grow t.c_queue n 0;
    t.c_hit <- grow t.c_hit n false
  end;
  t.c_id.(n) <- id;
  t.c_start.(n) <- start;
  t.c_finish.(n) <- finish;
  t.c_queue.(n) <- queue;
  t.c_hit.(n) <- hit;
  t.c_len <- n + 1

let issue t bank s =
  let k = t.cand.(bank) in
  let service = t.cand_service.(bank) in
  let ids = t.q_id.(bank) and arrivals = t.q_arrival.(bank) in
  let rows = t.q_row.(bank) and writes = t.q_write.(bank) in
  let id = ids.(k) and arrival = arrivals.(k) in
  let row = rows.(k) and write = writes.(k) in
  let hit = t.open_row.(bank) = row in
  let len = t.q_len.(bank) - 1 in
  for i = k to len - 1 do
    ids.(i) <- ids.(i + 1);
    arrivals.(i) <- arrivals.(i + 1);
    rows.(i) <- rows.(i + 1);
    writes.(i) <- writes.(i + 1)
  done;
  t.q_len.(bank) <- len;
  t.cand.(bank) <- -1;
  t.num_pending <- t.num_pending - 1;
  if write then begin
    t.num_writes <- t.num_writes - 1;
    if t.num_writes = write_drain_watermark - 1 then crossed_watermark t
  end;
  let finish = s + service in
  t.open_row.(bank) <-
    (match t.row_policy with Open_page -> row | Closed_page -> -1);
  t.bank_free.(bank) <- finish;
  t.bus_free.(bank mod t.channels) <- finish;
  t.num_served <- t.num_served + 1;
  if hit then t.num_row_hits <- t.num_row_hits + 1;
  occ_touch t s;
  t.occ_count <- t.occ_count - 1;
  note_depth t s;
  record_completion t ~id ~start:s ~finish ~queue:(s - arrival) ~hit

let advance t ~now =
  t.c_len <- 0;
  let s = ref (sweep t) in
  while t.best_bank >= 0 && !s <= now do
    issue t t.best_bank !s;
    s := sweep t
  done;
  (* the final sweep already found the next wake *)
  t.wake <- !s;
  t.c_len

let completion_id t i = t.c_id.(i)

let completion_start t i = t.c_start.(i)

let completion_finish t i = t.c_finish.(i)

let completion_queue_delay t i = t.c_queue.(i)

let completion_row_hit t i = t.c_hit.(i)

let next_wake t =
  if t.wake = min_int then t.wake <- sweep t;
  t.wake

let pending t = t.num_pending

let max_pending t = t.max_pending

let served t = t.num_served

let row_hits t = t.num_row_hits

let occupancy t ~at =
  occ_touch t at;
  if at <= 0 then 0. else float_of_int t.occ_integral /. float_of_int at

let reset t =
  Array.fill t.open_row 0 t.banks (-1);
  Array.fill t.bank_free 0 t.banks 0;
  Array.fill t.bus_free 0 t.channels 0;
  Array.fill t.q_len 0 t.banks 0;
  Array.fill t.cand 0 t.banks (-1);
  t.best_bank <- -1;
  t.wake <- max_int;
  t.c_len <- 0;
  t.num_pending <- 0;
  t.num_writes <- 0;
  t.num_served <- 0;
  t.num_row_hits <- 0;
  t.max_pending <- 0;
  t.occ_integral <- 0;
  t.occ_last_t <- 0;
  t.occ_count <- 0
