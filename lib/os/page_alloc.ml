type policy =
  | Hardware_interleaved
  | First_touch of (int -> int)
  | Mc_aware of { desired : int -> int option; fallback : int -> int }

(* vpage -> frame lives in a two-level radix table: [leaves.(vpage lsr
   leaf_bits)] is a [leaf_size]-entry int array (-1 = unmapped), allocated
   on the first mapping inside it, or [[||]] while none was.  The top level
   grows to the highest leaf touched, up to [max_leaves]; pages outside
   [0, max_leaves * leaf_size) (negative or far-away virtual addresses)
   fall back to a hash table. *)
let leaf_bits = 12

let leaf_size = 1 lsl leaf_bits

let leaf_mask = leaf_size - 1

let max_leaves = 1 lsl 16

type t = {
  map : Dram.Address_map.t;
  policy : policy;
  frames_per_mc : int;
  mutable leaves : int array array;
  far : (int, int) Hashtbl.t;  (** pages outside the radix table's range *)
  mutable mapped : int;  (** pages currently mapped *)
  next_local : int array;  (** per MC: next never-used local frame index *)
  free_local : int list array;
      (** per MC: reclaimed local frame indices, reused LIFO before the
          bump pointer advances *)
  in_use : int array;  (** per MC: frames currently mapped *)
  mutable next_seq : int;  (** line-interleaved mode: next frame *)
  mutable free_seq : int list;  (** line-interleaved mode: reclaimed *)
  mutable seq_in_use : int;
  mutable fallbacks : int;
  owner_fallbacks : (int, int) Hashtbl.t;
      (** fallbacks charged to each owner tag (a tenant/job id) *)
}

let create ~map ~policy ?(frames_per_mc = 1 lsl 18) () =
  {
    map;
    policy;
    frames_per_mc;
    leaves = [||];
    far = Hashtbl.create 16;
    mapped = 0;
    next_local = Array.make map.Dram.Address_map.num_mcs 0;
    free_local = Array.make map.Dram.Address_map.num_mcs [];
    in_use = Array.make map.Dram.Address_map.num_mcs 0;
    next_seq = 0;
    free_seq = [];
    seq_in_use = 0;
    fallbacks = 0;
    owner_fallbacks = Hashtbl.create 16;
  }

(* Global frame number of local frame [i] on controller [m]: under page
   interleaving, frame g lives on MC (g mod num_mcs). *)
let frame_on t m i = (i * t.map.Dram.Address_map.num_mcs) + m

let note_fallback t owner =
  t.fallbacks <- t.fallbacks + 1;
  if owner >= 0 then
    Hashtbl.replace t.owner_fallbacks owner
      (1 + Option.value (Hashtbl.find_opt t.owner_fallbacks owner) ~default:0)

(* A controller has room when its live-frame count is under budget —
   counting live frames (not the bump pointer) is what lets a full
   controller refill from reclaimed frames instead of over-allocating. *)
let has_room t m = t.in_use.(m) < t.frames_per_mc

let take_frame t m =
  t.in_use.(m) <- t.in_use.(m) + 1;
  match t.free_local.(m) with
  | i :: rest ->
    t.free_local.(m) <- rest;
    frame_on t m i
  | [] ->
    let i = t.next_local.(m) in
    t.next_local.(m) <- i + 1;
    frame_on t m i

(* the desired controller, then the others round-robin *)
let alloc_on t ~owner m =
  let num_mcs = t.map.Dram.Address_map.num_mcs in
  let i = ref 0 in
  while !i < num_mcs && not (has_room t ((m + !i) mod num_mcs)) do
    incr i
  done;
  if !i = num_mcs then failwith "Page_alloc: physical memory exhausted";
  if !i > 0 then note_fallback t owner;
  take_frame t ((m + !i) mod num_mcs)

let set_frame t vpage f =
  t.mapped <- t.mapped + 1;
  let top = vpage lsr leaf_bits in
  if top < max_leaves then begin
    let n = Array.length t.leaves in
    if top >= n then begin
      let leaves = Array.make (Int.min max_leaves (Int.max (top + 1) (2 * n))) [||] in
      Array.blit t.leaves 0 leaves 0 n;
      t.leaves <- leaves
    end;
    if Array.length t.leaves.(top) = 0 then
      t.leaves.(top) <- Array.make leaf_size (-1);
    t.leaves.(top).(vpage land leaf_mask) <- f
  end
  else Hashtbl.replace t.far vpage f

(* First touch of [vpage]: pick a frame under the interleaving and policy
   and map it. *)
let map_page t ~owner ~node vpage =
  let f =
    match t.map.Dram.Address_map.interleaving with
    | Dram.Address_map.Line_interleaved ->
      (* MC bits are inside the page offset: any frame works, but the
         total capacity is still bounded *)
      if t.seq_in_use >= t.frames_per_mc * t.map.Dram.Address_map.num_mcs then
        failwith "Page_alloc: physical memory exhausted"
      else begin
        t.seq_in_use <- t.seq_in_use + 1;
        match t.free_seq with
        | f :: rest ->
          t.free_seq <- rest;
          f
        | [] ->
          let f = t.next_seq in
          t.next_seq <- f + 1;
          f
      end
    | Dram.Address_map.Page_interleaved -> (
      match t.policy with
      | Hardware_interleaved ->
        alloc_on t ~owner (vpage mod t.map.Dram.Address_map.num_mcs)
      | First_touch cluster_mc -> alloc_on t ~owner (cluster_mc node)
      | Mc_aware { desired; fallback } ->
        alloc_on t ~owner
          (match desired vpage with Some m -> m | None -> fallback node))
  in
  set_frame t vpage f;
  f

(* frame of a mapped page, or -1 *)
let find t vpage =
  let top = vpage lsr leaf_bits in
  if top < Array.length t.leaves then begin
    let leaf = t.leaves.(top) in
    if Array.length leaf = 0 then -1 else leaf.(vpage land leaf_mask)
  end
  else if top < max_leaves then -1
  else match Hashtbl.find_opt t.far vpage with Some f -> f | None -> -1

(* a mapped page costs two array loads and no allocation *)
let translate_owned t ~owner ~node ~vaddr =
  let page_bytes = t.map.Dram.Address_map.page_bytes in
  let vpage = vaddr / page_bytes in
  let f = find t vpage in
  let frame = if f >= 0 then f else map_page t ~owner ~node vpage in
  (frame * page_bytes) + (vaddr mod page_bytes)

let translate t ~node ~vaddr = translate_owned t ~owner:(-1) ~node ~vaddr

let release t f =
  t.mapped <- t.mapped - 1;
  match t.map.Dram.Address_map.interleaving with
  | Dram.Address_map.Line_interleaved ->
    t.free_seq <- f :: t.free_seq;
    t.seq_in_use <- t.seq_in_use - 1
  | Dram.Address_map.Page_interleaved ->
    let num_mcs = t.map.Dram.Address_map.num_mcs in
    let m = f mod num_mcs in
    t.free_local.(m) <- (f / num_mcs) :: t.free_local.(m);
    t.in_use.(m) <- t.in_use.(m) - 1

(* Ascending virtual-page order, as the frames' free lists are LIFO:
   leaves never allocated are skipped whole, and so is the radix range
   past the last allocated leaf. *)
let free_region t ~first_vpage ~last_vpage =
  let freed = ref 0 in
  let v = ref first_vpage and more = ref (first_vpage <= last_vpage) in
  (* moves the cursor past [stop], the end of the segment just done *)
  let advance stop = if stop >= last_vpage then more := false else v := stop + 1 in
  while !more do
    let top = !v lsr leaf_bits in
    if top < Array.length t.leaves then begin
      let leaf = t.leaves.(top) in
      let stop = Int.min last_vpage ((top lsl leaf_bits) lor leaf_mask) in
      if Array.length leaf > 0 then
        for u = !v to stop do
          let f = leaf.(u land leaf_mask) in
          if f >= 0 then begin
            leaf.(u land leaf_mask) <- -1;
            release t f;
            incr freed
          end
        done;
      advance stop
    end
    else if top < max_leaves then advance ((max_leaves lsl leaf_bits) - 1)
    else begin
      (match Hashtbl.find_opt t.far !v with
      | Some f ->
        Hashtbl.remove t.far !v;
        release t f;
        incr freed
      | None -> ());
      advance !v
    end
  done;
  !freed

let mc_of_vpage t vpage =
  match t.map.Dram.Address_map.interleaving with
  | Dram.Address_map.Line_interleaved -> None
  | Dram.Address_map.Page_interleaved ->
    let f = find t vpage in
    if f < 0 then None else Some (f mod t.map.Dram.Address_map.num_mcs)

let pages_allocated t = t.mapped

let fallback_allocations t = t.fallbacks

let fallback_allocations_of t ~owner =
  Option.value (Hashtbl.find_opt t.owner_fallbacks owner) ~default:0

let reset t =
  t.leaves <- [||];
  Hashtbl.reset t.far;
  t.mapped <- 0;
  Array.fill t.next_local 0 (Array.length t.next_local) 0;
  Array.fill t.free_local 0 (Array.length t.free_local) [];
  Array.fill t.in_use 0 (Array.length t.in_use) 0;
  t.next_seq <- 0;
  t.free_seq <- [];
  t.seq_in_use <- 0;
  t.fallbacks <- 0;
  Hashtbl.reset t.owner_fallbacks
