(* Binary min-heap on parallel int arrays: (time, seq) keys and int
   payloads, so pushing an event allocates nothing once the arrays have
   grown to the run's peak population, and no store pays the write
   barrier a polymorphic payload array would.  Sifting moves a hole
   instead of swapping, halving the array writes on the hot path. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; len = 0; next_seq = 0 }

let grow h =
  let cap = max 64 (2 * h.len) in
  let times = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let payloads = Array.make cap 0 in
  Array.blit h.times 0 times 0 h.len;
  Array.blit h.seqs 0 seqs 0 h.len;
  Array.blit h.payloads 0 payloads 0 h.len;
  h.times <- times;
  h.seqs <- seqs;
  h.payloads <- payloads

let push h ~time payload =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  if h.len = Array.length h.times then grow h;
  (* sift the hole up from the end *)
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

let next_time h =
  if h.len = 0 then invalid_arg "Event_heap.next_time: empty";
  h.times.(0)

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

let pop_payload h =
  if h.len = 0 then invalid_arg "Event_heap.pop_payload: empty";
  let p = h.payloads.(0) in
  remove_root h;
  p

let pop h =
  if h.len = 0 then None
  else begin
    let t = h.times.(0) in
    let p = h.payloads.(0) in
    remove_root h;
    Some (t, p)
  end

let is_empty h = h.len = 0

let size h = h.len
