(* A timing wheel in front of a binary min-heap.

   The wheel has [wheel_size] per-cycle FIFO buckets covering the times
   [base, base + wheel_size), where [base] is the latest time popped so
   far (0 before the first pop).  Every push takes the next global
   sequence number; a push inside the window appends to its bucket, any
   other push (further ahead, or earlier than [base]) goes to the heap.
   Inside the window a bucket can only hold one time, and its events are
   in push (= sequence) order, so the wheel's first event is its minimum
   (time, seq) key.  A pop takes the smaller (time, seq) of that event
   and the heap root, which is exactly the order of a heap alone.  [base]
   only grows and every pop is the global minimum, so wheel events stay
   inside the window as it moves.

   On equal times the heap's event is always the older one, so the
   sequence comparison reduces to "the heap wins ties": a heap event at
   time t earlier than [base] cannot meet a wheel event at t (wheel
   events are never earlier than [base]), and one at t >= base +
   wheel_size was pushed before [base] grew enough for t to enter the
   window, i.e. before any wheel event at t.  The wheel therefore needs
   no sequence numbers.

   Buckets are intrusive lists in flat int arrays, found through an
   occupancy bitmap (32 buckets per word), and the heap keeps (time, seq)
   keys and payloads in parallel int arrays: nothing allocates once the
   arrays have grown to the run's peak population. *)

let wheel_bits = 12

let wheel_size = 1 lsl wheel_bits

let wheel_mask = wheel_size - 1

let occ_words = wheel_size / 32

type t = {
  (* overflow heap *)
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable len : int;
  (* wheel: per-bucket list ends, -1 = empty *)
  head : int array;
  tail : int array;
  occ : int array;  (** bit [q land 31] of word [q lsr 5]: bucket q is non-empty *)
  (* wheel nodes *)
  mutable n_payload : int array;
  mutable n_next : int array;  (** next node in the bucket, or in the free list *)
  mutable free : int;  (** first free node, -1 = none *)
  mutable wcount : int;
  mutable wmin : int;  (** earliest time in the wheel (when [wcount > 0]) *)
  mutable base : int;
  mutable next_seq : int;
}

let create () =
  {
    times = [||];
    seqs = [||];
    payloads = [||];
    len = 0;
    head = Array.make wheel_size (-1);
    tail = Array.make wheel_size (-1);
    occ = Array.make occ_words 0;
    n_payload = [||];
    n_next = [||];
    free = -1;
    wcount = 0;
    wmin = 0;
    base = 0;
    next_seq = 0;
  }

(* ---- overflow heap: sifting moves a hole instead of swapping ---- *)

let grow_heap h =
  let cap = Int.max 64 (2 * h.len) in
  let times = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let payloads = Array.make cap 0 in
  Array.blit h.times 0 times 0 h.len;
  Array.blit h.seqs 0 seqs 0 h.len;
  Array.blit h.payloads 0 payloads 0 h.len;
  h.times <- times;
  h.seqs <- seqs;
  h.payloads <- payloads

let heap_push h time seq payload =
  if h.len = Array.length h.times then grow_heap h;
  let i = ref h.len in
  h.len <- h.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = h.times.(parent) in
    if time < pt || (time = pt && seq < h.seqs.(parent)) then begin
      h.times.(!i) <- pt;
      h.seqs.(!i) <- h.seqs.(parent);
      h.payloads.(!i) <- h.payloads.(parent);
      i := parent
    end
    else moving := false
  done;
  h.times.(!i) <- time;
  h.seqs.(!i) <- seq;
  h.payloads.(!i) <- payload

(* Remove the root, re-sitting the last element down from the hole. *)
let remove_root h =
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then begin
    let lt = h.times.(n) and ls = h.seqs.(n) in
    let lp = h.payloads.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (h.times.(r) < h.times.(l)
               || (h.times.(r) = h.times.(l) && h.seqs.(r) < h.seqs.(l)))
          then r
          else l
        in
        let ct = h.times.(c) in
        if ct < lt || (ct = lt && h.seqs.(c) < ls) then begin
          h.times.(!i) <- ct;
          h.seqs.(!i) <- h.seqs.(c);
          h.payloads.(!i) <- h.payloads.(c);
          i := c
        end
        else moving := false
      end
    done;
    h.times.(!i) <- lt;
    h.seqs.(!i) <- ls;
    h.payloads.(!i) <- lp
  end

(* ---- wheel ---- *)

let grow_nodes h =
  let old = Array.length h.n_payload in
  let cap = Int.max 64 (2 * old) in
  let extend a = Array.init cap (fun i -> if i < old then a.(i) else 0) in
  h.n_payload <- extend h.n_payload;
  h.n_next <- extend h.n_next;
  (* the free list is empty when growing: chain the new nodes *)
  for i = old to cap - 2 do
    h.n_next.(i) <- i + 1
  done;
  h.n_next.(cap - 1) <- -1;
  h.free <- old

let wheel_push h time payload =
  if h.free < 0 then grow_nodes h;
  let n = h.free in
  h.free <- h.n_next.(n);
  h.n_payload.(n) <- payload;
  h.n_next.(n) <- -1;
  let q = time land wheel_mask in
  if h.head.(q) < 0 then begin
    h.head.(q) <- n;
    h.occ.(q lsr 5) <- h.occ.(q lsr 5) lor (1 lsl (q land 31))
  end
  else h.n_next.(h.tail.(q)) <- n;
  h.tail.(q) <- n;
  if h.wcount = 0 || time < h.wmin then h.wmin <- time;
  h.wcount <- h.wcount + 1

(* index of the single set bit of a 32-bit power of two (de Bruijn) *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit x =
  debruijn.((((x land (-x)) * 0x077CB531) land 0xffffffff) lsr 27)

(* First non-empty bucket at or after [p], circularly; the wheel must
   hold an event. *)
let next_occupied h p =
  let w = p lsr 5 in
  let bits = h.occ.(w) land ((-1) lsl (p land 31)) in
  if bits <> 0 then (w lsl 5) + lowest_bit bits
  else begin
    let w = ref ((w + 1) land (occ_words - 1)) in
    while h.occ.(!w) = 0 do
      w := (!w + 1) land (occ_words - 1)
    done;
    (!w lsl 5) + lowest_bit h.occ.(!w)
  end

(* Pops the head of the earliest bucket; when that empties the bucket,
   the next earliest time is the first occupied bucket after it (every
   wheel event lies in (wmin, wmin + wheel_size)). *)
let wheel_pop h =
  let t = h.wmin in
  let q = t land wheel_mask in
  let n = h.head.(q) in
  let payload = h.n_payload.(n) in
  let next = h.n_next.(n) in
  h.head.(q) <- next;
  h.n_next.(n) <- h.free;
  h.free <- n;
  h.wcount <- h.wcount - 1;
  if next < 0 then begin
    h.occ.(q lsr 5) <- h.occ.(q lsr 5) land lnot (1 lsl (q land 31));
    if h.wcount > 0 then begin
      let p = (q + 1) land wheel_mask in
      h.wmin <- t + 1 + ((next_occupied h p - p) land wheel_mask)
    end
  end;
  h.base <- t;
  payload

(* ---- queue ---- *)

let push h ~time payload =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  (* [base >= 0], so [time - base] cannot overflow once [time >= base] *)
  if time >= h.base && time - h.base < wheel_size then
    wheel_push h time payload
  else heap_push h time seq payload

(* the wheel's first event precedes the heap root in (time, seq) order:
   the heap wins time ties (see the top of the file) *)
let wheel_first h = h.wcount > 0 && (h.len = 0 || h.wmin < h.times.(0))

let next_time h =
  if h.wcount > 0 && (h.len = 0 || h.wmin <= h.times.(0)) then h.wmin
  else if h.len = 0 then invalid_arg "Event_heap.next_time: empty"
  else h.times.(0)

let heap_pop h =
  let t = h.times.(0) in
  let payload = h.payloads.(0) in
  remove_root h;
  h.base <- Int.max h.base t;
  payload

let pop_payload h =
  if wheel_first h then wheel_pop h
  else if h.len = 0 then invalid_arg "Event_heap.pop_payload: empty"
  else heap_pop h

let pop h =
  if wheel_first h then begin
    let t = h.wmin in
    Some (t, wheel_pop h)
  end
  else if h.len = 0 then None
  else begin
    let t = h.times.(0) in
    Some (t, heap_pop h)
  end

let is_empty h = h.wcount = 0 && h.len = 0

let size h = h.wcount + h.len
