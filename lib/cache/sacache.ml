type result = Hit | Miss of { evicted : int option; evicted_dirty : bool }

type t = {
  line_bytes : int;
  line_shift : int;
  num_sets : int;
  set_shift : int;  (** log2 [num_sets] if a power of two, else -1 *)
  hash_sets : bool;
  ways : int;
  tags : int array;  (** [(set * ways) + way] -> line address, or -1 *)
  dirty : bool array;
  last_use : int array;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(hash_sets = false) ~size_bytes ~line_bytes ~ways () =
  if size_bytes <= 0 || ways <= 0 || line_bytes < 4 || not (is_pow2 line_bytes)
  then
    invalid_arg "Sacache.create";
  let lines = size_bytes / line_bytes in
  let num_sets = lines / ways in
  if num_sets <= 0 then invalid_arg "Sacache.create: geometry too small";
  {
    line_bytes;
    line_shift = log2 line_bytes;
    num_sets;
    set_shift = (if is_pow2 num_sets then log2 num_sets else -1);
    hash_sets;
    ways;
    tags = Array.make (num_sets * ways) (-1);
    dirty = Array.make (num_sets * ways) false;
    last_use = Array.make (num_sets * ways) 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let line_bytes c = c.line_bytes

let sets c = c.num_sets

let line_addr c addr = addr land lnot (c.line_bytes - 1)

(* XOR-folding divides by [num_sets] and its square; a power-of-two set
   count does both (and the final reduction) with shifts and a mask, which
   equals the div/mod form because [idx] is non-negative. *)
let set_of c line =
  let idx = line lsr c.line_shift in
  let s = c.set_shift in
  if s >= 0 then
    let idx = if c.hash_sets then idx lxor (idx lsr s) lxor (idx lsr (2 * s)) else idx in
    idx land (c.num_sets - 1)
  else
    let idx = if c.hash_sets then idx lxor (idx / c.num_sets) lxor (idx / (c.num_sets * c.num_sets)) else idx in
    ((idx mod c.num_sets) + c.num_sets) mod c.num_sets

(* Slot holding [line] in the set starting at [base], or -1: a plain
   loop, so a lookup allocates no option and no closure. *)
let find_in c base line =
  let slot = ref (-1) and w = ref 0 in
  while !slot < 0 && !w < c.ways do
    if c.tags.(base + !w) = line then slot := base + !w;
    incr w
  done;
  !slot

let find c line = find_in c (set_of c line * c.ways) line

let hit = -1

let miss_clean = -2

let access_code c ~addr ~write =
  c.tick <- c.tick + 1;
  let line = line_addr c addr in
  let base = set_of c line * c.ways in
  let slot = find_in c base line in
  if slot >= 0 then begin
    c.hits <- c.hits + 1;
    c.last_use.(slot) <- c.tick;
    if write then c.dirty.(slot) <- true;
    hit
  end
  else begin
    c.misses <- c.misses + 1;
    (* victim: an invalid way, else the LRU way *)
    let victim = ref base in
    for w = 0 to c.ways - 1 do
      let i = base + w in
      if c.tags.(i) = -1 then begin
        if c.tags.(!victim) <> -1 then victim := i
      end
      else if c.tags.(!victim) <> -1 && c.last_use.(i) < c.last_use.(!victim)
      then victim := i
    done;
    let v = !victim in
    let old = c.tags.(v) in
    let code =
      if old = -1 then miss_clean else if c.dirty.(v) then old lor 1 else old
    in
    c.tags.(v) <- line;
    c.dirty.(v) <- write;
    c.last_use.(v) <- c.tick;
    code
  end

let access c ~addr ~write =
  let code = access_code c ~addr ~write in
  if code = hit then Hit
  else if code = miss_clean then Miss { evicted = None; evicted_dirty = false }
  else
    Miss { evicted = Some (code land lnot 1); evicted_dirty = code land 1 <> 0 }

let probe c ~addr = find c (line_addr c addr) >= 0

let invalidate c ~addr =
  let slot = find c (line_addr c addr) in
  if slot < 0 then false
  else
    let was_dirty = c.dirty.(slot) in
    c.tags.(slot) <- -1;
    c.dirty.(slot) <- false;
    was_dirty

let clear c =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  Array.fill c.dirty 0 (Array.length c.dirty) false;
  Array.fill c.last_use 0 (Array.length c.last_use) 0;
  c.tick <- 0;
  c.hits <- 0;
  c.misses <- 0

let stats c = (c.hits, c.misses)
