(* Holder sets as pairs of 62-bit words: word 0 covers nodes 0..61, word 1
   nodes 62..123.  124 nodes is ample for every configuration evaluated.

   Tracked lines live in an open-addressing table on one flat int array:
   slot i is [slots.(3i)] = the line (-1 = empty), [slots.(3i+1)] and
   [slots.(3i+2)] = its two holder words.  Lines hash multiplicatively (the
   top bits of line * an odd constant, so the zero low bits of aligned
   lines do not matter) and collisions probe linearly.  A line enters the
   table with its first holder and leaves it with its last; deletion
   shifts the rest of the probe chain back into the hole, so there are no
   tombstones and a lookup stops at the first empty slot.  The table
   doubles when it would pass half full. *)

let bits_per_word = 62

let empty = -1

type t = {
  nodes : int;
  mutable slots : int array;
  mutable bits : int;  (** log2 of the slot count *)
  mutable count : int;  (** lines tracked *)
}

let initial_bits = 12

let create ~nodes =
  if nodes <= 0 || nodes > 2 * bits_per_word then invalid_arg "Directory.create";
  {
    nodes;
    slots = Array.make (3 lsl initial_bits) empty;
    bits = initial_bits;
    count = 0;
  }

let home d line = (line * 0x2545F4914F6CDD1D) lsr (63 - d.bits)

(* Slot holding [line], or -1. *)
let find d line =
  let mask = (1 lsl d.bits) - 1 in
  let i = ref (home d line) and r = ref (-2) in
  while !r = -2 do
    let k = d.slots.(3 * !i) in
    if k = empty then r := -1
    else if k = line then r := !i
    else i := (!i + 1) land mask
  done;
  !r

(* First empty slot of [line]'s probe chain; the line must be absent. *)
let free_slot d line =
  let mask = (1 lsl d.bits) - 1 in
  let i = ref (home d line) in
  while d.slots.(3 * !i) <> empty do
    i := (!i + 1) land mask
  done;
  !i

let grow d =
  let old = d.slots in
  d.bits <- d.bits + 1;
  d.slots <- Array.make (3 lsl d.bits) empty;
  for i = 0 to (Array.length old / 3) - 1 do
    let k = old.(3 * i) in
    if k <> empty then begin
      let j = 3 * free_slot d k in
      d.slots.(j) <- k;
      d.slots.(j + 1) <- old.((3 * i) + 1);
      d.slots.(j + 2) <- old.((3 * i) + 2)
    end
  done

let add_holder d ~line ~node =
  if node < 0 || node >= d.nodes || line = empty then
    invalid_arg "Directory.add_holder";
  let i =
    let i = find d line in
    if i >= 0 then i
    else begin
      if 2 * (d.count + 1) > 1 lsl d.bits then grow d;
      let i = free_slot d line in
      d.slots.(3 * i) <- line;
      d.slots.((3 * i) + 1) <- 0;
      d.slots.((3 * i) + 2) <- 0;
      d.count <- d.count + 1;
      i
    end
  in
  if node < bits_per_word then
    d.slots.((3 * i) + 1) <- d.slots.((3 * i) + 1) lor (1 lsl node)
  else
    d.slots.((3 * i) + 2) <-
      d.slots.((3 * i) + 2) lor (1 lsl (node - bits_per_word))

(* Empties slot [i], then walks the probe chain after it: an entry whose
   home lies cyclically at or before the hole moves back into it, and the
   hole moves to where that entry was, until an empty slot ends the
   chain. *)
let delete d i =
  let mask = (1 lsl d.bits) - 1 in
  let hole = ref i and j = ref i and more = ref true in
  while !more do
    j := (!j + 1) land mask;
    let k = d.slots.(3 * !j) in
    if k = empty then more := false
    else if (!j - home d k) land mask >= (!j - !hole) land mask then begin
      d.slots.(3 * !hole) <- k;
      d.slots.((3 * !hole) + 1) <- d.slots.((3 * !j) + 1);
      d.slots.((3 * !hole) + 2) <- d.slots.((3 * !j) + 2);
      hole := !j
    end
  done;
  d.slots.(3 * !hole) <- empty;
  d.count <- d.count - 1

let remove_holder d ~line ~node =
  let i = find d line in
  if i >= 0 then begin
    if node < bits_per_word then
      d.slots.((3 * i) + 1) <- d.slots.((3 * i) + 1) land lnot (1 lsl node)
    else
      d.slots.((3 * i) + 2) <-
        d.slots.((3 * i) + 2) land lnot (1 lsl (node - bits_per_word));
    if d.slots.((3 * i) + 1) = 0 && d.slots.((3 * i) + 2) = 0 then delete d i
  end

let holders d ~line =
  let i = find d line in
  if i < 0 then []
  else begin
    let w0 = d.slots.((3 * i) + 1) and w1 = d.slots.((3 * i) + 2) in
    let acc = ref [] in
    for n = d.nodes - 1 downto 0 do
      let bit =
        if n < bits_per_word then w0 land (1 lsl n)
        else w1 land (1 lsl (n - bits_per_word))
      in
      if bit <> 0 then acc := n :: !acc
    done;
    !acc
  end

let holder_word d ~line ~word =
  let i = find d line in
  if i < 0 then 0 else d.slots.((3 * i) + 1 + word)

(* Walks the set bits of both words in ascending node order, skipping
   zero bytes, and keeps the first minimum of [distance]. *)
let closest_holder d ~line ~excluding ~distance () =
  let i = find d line in
  if i < 0 then -1
  else begin
    let best = ref (-1) and best_dist = ref 0 in
    for word = 0 to 1 do
      let w = ref d.slots.((3 * i) + 1 + word) in
      let node = ref (word * bits_per_word) in
      while !w <> 0 do
        if !w land 0xff = 0 then begin
          w := !w lsr 8;
          node := !node + 8
        end
        else begin
          if !w land 1 <> 0 && !node <> excluding then begin
            let dist = distance !node in
            if !best < 0 || dist < !best_dist then begin
              best := !node;
              best_dist := dist
            end
          end;
          w := !w lsr 1;
          incr node
        end
      done
    done;
    !best
  end

let clear d =
  Array.fill d.slots 0 (Array.length d.slots) empty;
  d.count <- 0
