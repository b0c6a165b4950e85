(* Reference model for the page allocator: the implementation the
   simulator used before its vpage -> frame map became a radix table, a
   polymorphic Hashtbl, kept verbatim so the differential property in
   test_os.ml can check the radix table against it call for call. *)

type policy =
  | Hardware_interleaved
  | First_touch of (int -> int)
  | Mc_aware of { desired : int -> int option; fallback : int -> int }

type t = {
  map : Dram.Address_map.t;
  policy : policy;
  frames_per_mc : int;
  table : (int, int) Hashtbl.t;  (** virtual page -> physical frame *)
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
    table = Hashtbl.create 4096;
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
  Hashtbl.replace t.table vpage f;
  f

(* a mapped page costs one table lookup and no allocation *)
let translate_owned t ~owner ~node ~vaddr =
  let page_bytes = t.map.Dram.Address_map.page_bytes in
  let vpage = vaddr / page_bytes in
  let frame =
    match Hashtbl.find t.table vpage with
    | f -> f
    | exception Not_found -> map_page t ~owner ~node vpage
  in
  (frame * page_bytes) + (vaddr mod page_bytes)

let translate t ~node ~vaddr = translate_owned t ~owner:(-1) ~node ~vaddr

let free_region t ~first_vpage ~last_vpage =
  let freed = ref 0 in
  for vpage = first_vpage to last_vpage do
    match Hashtbl.find_opt t.table vpage with
    | None -> ()
    | Some f ->
      Hashtbl.remove t.table vpage;
      incr freed;
      (match t.map.Dram.Address_map.interleaving with
      | Dram.Address_map.Line_interleaved ->
        t.free_seq <- f :: t.free_seq;
        t.seq_in_use <- t.seq_in_use - 1
      | Dram.Address_map.Page_interleaved ->
        let num_mcs = t.map.Dram.Address_map.num_mcs in
        let m = f mod num_mcs in
        t.free_local.(m) <- (f / num_mcs) :: t.free_local.(m);
        t.in_use.(m) <- t.in_use.(m) - 1)
  done;
  !freed

let mc_of_vpage t vpage =
  match t.map.Dram.Address_map.interleaving with
  | Dram.Address_map.Line_interleaved -> None
  | Dram.Address_map.Page_interleaved ->
    Option.map
      (fun f -> f mod t.map.Dram.Address_map.num_mcs)
      (Hashtbl.find_opt t.table vpage)

let pages_allocated t = Hashtbl.length t.table

let fallback_allocations t = t.fallbacks

let fallback_allocations_of t ~owner =
  Option.value (Hashtbl.find_opt t.owner_fallbacks owner) ~default:0

let reset t =
  Hashtbl.reset t.table;
  Array.fill t.next_local 0 (Array.length t.next_local) 0;
  Array.fill t.free_local 0 (Array.length t.free_local) [];
  Array.fill t.in_use 0 (Array.length t.in_use) 0;
  t.next_seq <- 0;
  t.free_seq <- [];
  t.seq_in_use <- 0;
  t.fallbacks <- 0;
  Hashtbl.reset t.owner_fallbacks
