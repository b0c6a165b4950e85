(* Holder sets as pairs of 62-bit words: word 0 covers nodes 0..61, word 1
   nodes 62..123.  124 nodes is ample for every configuration evaluated.
   The words are mutable, so adding or removing a holder of a tracked line
   updates its entry in place; an entry is allocated when a line gains its
   first holder and dropped when it loses its last. *)

type words = { mutable w0 : int; mutable w1 : int }

type t = { nodes : int; table : (int, words) Hashtbl.t }

let bits_per_word = 62

let create ~nodes =
  if nodes <= 0 || nodes > 2 * bits_per_word then invalid_arg "Directory.create";
  { nodes; table = Hashtbl.create 4096 }

let add_holder d ~line ~node =
  if node < 0 || node >= d.nodes then invalid_arg "Directory.add_holder";
  let h =
    match Hashtbl.find d.table line with
    | h -> h
    | exception Not_found ->
      let h = { w0 = 0; w1 = 0 } in
      Hashtbl.add d.table line h;
      h
  in
  if node < bits_per_word then h.w0 <- h.w0 lor (1 lsl node)
  else h.w1 <- h.w1 lor (1 lsl (node - bits_per_word))

let remove_holder d ~line ~node =
  match Hashtbl.find d.table line with
  | exception Not_found -> ()
  | h ->
    if node < bits_per_word then h.w0 <- h.w0 land lnot (1 lsl node)
    else h.w1 <- h.w1 land lnot (1 lsl (node - bits_per_word));
    if h.w0 = 0 && h.w1 = 0 then Hashtbl.remove d.table line

let holders d ~line =
  match Hashtbl.find d.table line with
  | exception Not_found -> []
  | h ->
    let acc = ref [] in
    for n = d.nodes - 1 downto 0 do
      let bit =
        if n < bits_per_word then h.w0 land (1 lsl n)
        else h.w1 land (1 lsl (n - bits_per_word))
      in
      if bit <> 0 then acc := n :: !acc
    done;
    !acc

(* Walks the set bits of both words in ascending node order, skipping
   zero bytes, and keeps the first minimum of [distance]. *)
let closest_holder d ~line ?(excluding = -1) ~distance () =
  match Hashtbl.find d.table line with
  | exception Not_found -> -1
  | h ->
    let best = ref (-1) and best_dist = ref 0 in
    for word = 0 to 1 do
      let w = ref (if word = 0 then h.w0 else h.w1) in
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

let clear d = Hashtbl.reset d.table
