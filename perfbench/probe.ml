(* Host-speed probe: a fixed piece of work that calls none of the
   repository's code.  It allocates and sorts a list, fills and reads a
   hash table, and reads an 8 MB array at random: the kinds of work the
   simulator's host time goes to.  The benchmark runs it before every op
   and scales its host times by [reference_s] over the run's fastest
   probe, so that a run on a host slowed by its neighbours reads like a
   run on a quiet one.  A change to the repository's code cannot move the
   probe. *)

(* a round figure inside the range of the fastest probes seen (20-47 ms)
   on the 2-core 2.1 GHz Xeon host the benchmark was built on; it only
   sets the unit of the scaled times *)
let reference_s = 0.030

let work () =
  let n = 40_000 in
  let l = List.init n (fun i -> ((i * 2654435761) land 0xFFFFF, float_of_int i)) in
  let h = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) (List.sort compare l);
  let acc = ref 0. in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt h ((i * 40503) land 0xFFFFF) with
    | Some v -> acc := !acc +. v
    | None -> ()
  done;
  let a = Array.init (1 lsl 20) (fun i -> i) in
  let j = ref 0 and sum = ref 0 in
  for _ = 1 to 400_000 do
    j := ((!j * 1103515245) + 12345) land 0xFFFFF;
    sum := !sum + a.(!j)
  done;
  ignore (Sys.opaque_identity (!acc, !sum))

(* host seconds one probe takes now *)
let time () =
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0
