(* Tests for the cache substrate: set-associative LRU caches and the L2
   tag directory. *)

module Sacache = Cache_sim.Sacache
module Directory = Cache_sim.Directory

let mk ?(hash = false) ?(size = 1024) ?(line = 64) ?(ways = 2) () =
  Sacache.create ~hash_sets:hash ~size_bytes:size ~line_bytes:line ~ways ()

let is_hit = function Sacache.Hit -> true | Sacache.Miss _ -> false

let test_geometry () =
  let c = mk () in
  Alcotest.(check int) "sets" 8 (Sacache.sets c);
  Alcotest.(check int) "line bytes" 64 (Sacache.line_bytes c);
  Alcotest.(check int) "line addr" 128 (Sacache.line_addr c 130);
  Alcotest.check_raises "bad line size" (Invalid_argument "Sacache.create")
    (fun () -> ignore (Sacache.create ~size_bytes:1024 ~line_bytes:48 ~ways:2 ()))

let test_hit_after_fill () =
  let c = mk () in
  Alcotest.(check bool) "cold miss" false (is_hit (Sacache.access c ~addr:0 ~write:false));
  Alcotest.(check bool) "then hit" true (is_hit (Sacache.access c ~addr:0 ~write:false));
  Alcotest.(check bool) "same line hit" true (is_hit (Sacache.access c ~addr:63 ~write:false));
  Alcotest.(check bool) "next line miss" false (is_hit (Sacache.access c ~addr:64 ~write:false))

let test_lru_eviction () =
  let c = mk () in
  (* 2-way set 0: lines 0, 512 (8 sets × 64B = 512B stride aliases) *)
  ignore (Sacache.access c ~addr:0 ~write:false);
  ignore (Sacache.access c ~addr:512 ~write:false);
  (* touch 0 so 512 becomes LRU *)
  ignore (Sacache.access c ~addr:0 ~write:false);
  (* a third line in set 0 must evict 512 *)
  (match Sacache.access c ~addr:1024 ~write:false with
  | Sacache.Miss { evicted = Some e; _ } -> Alcotest.(check int) "evicts LRU" 512 e
  | _ -> Alcotest.fail "expected an eviction");
  Alcotest.(check bool) "0 still resident" true (is_hit (Sacache.access c ~addr:0 ~write:false));
  Alcotest.(check bool) "512 gone" false (is_hit (Sacache.access c ~addr:512 ~write:false))

let test_dirty_writeback () =
  (* direct-mapped: 16 sets, same-set stride 1024 *)
  let c = mk ~ways:1 () in
  ignore (Sacache.access c ~addr:0 ~write:true);
  (match Sacache.access c ~addr:1024 ~write:false with
  | Sacache.Miss { evicted = Some 0; evicted_dirty = true } -> ()
  | _ -> Alcotest.fail "dirty line must be written back");
  (* clean eviction *)
  match Sacache.access c ~addr:2048 ~write:false with
  | Sacache.Miss { evicted = Some 1024; evicted_dirty = false } -> ()
  | _ -> Alcotest.fail "clean line eviction"

let test_probe_invalidate () =
  let c = mk () in
  ignore (Sacache.access c ~addr:320 ~write:true);
  Alcotest.(check bool) "probe finds it" true (Sacache.probe c ~addr:320);
  Alcotest.(check bool) "invalidate reports dirty" true (Sacache.invalidate c ~addr:320);
  Alcotest.(check bool) "gone after invalidate" false (Sacache.probe c ~addr:320);
  Alcotest.(check bool) "invalidate missing is false" false (Sacache.invalidate c ~addr:320)

let test_stats_and_clear () =
  let c = mk () in
  ignore (Sacache.access c ~addr:0 ~write:false);
  ignore (Sacache.access c ~addr:0 ~write:false);
  Alcotest.(check (pair int int)) "1 hit 1 miss" (1, 1) (Sacache.stats c);
  Sacache.clear c;
  Alcotest.(check (pair int int)) "cleared" (0, 0) (Sacache.stats c);
  Alcotest.(check bool) "cold again" false (is_hit (Sacache.access c ~addr:0 ~write:false))

let test_hash_spreads_aliases () =
  (* addresses at stride sets*line alias to one set without hashing; the
     XOR fold must spread them so a working set of #sets lines survives *)
  let plain = mk ~ways:2 () and hashed = mk ~hash:true ~ways:2 () in
  let stride = 8 * 64 in
  let touch c =
    for i = 0 to 7 do
      ignore (Sacache.access c ~addr:(i * stride) ~write:false)
    done;
    (* second pass: count hits *)
    let hits = ref 0 in
    for i = 0 to 7 do
      if is_hit (Sacache.access c ~addr:(i * stride) ~write:false) then incr hits
    done;
    !hits
  in
  Alcotest.(check int) "plain cache thrashes" 0 (touch plain);
  Alcotest.(check bool) "hashed cache retains most" true (touch hashed >= 6)

let prop_lru_working_set =
  (* any working set of <= ways lines per set always hits after warmup *)
  QCheck.Test.make ~name:"working set of `ways` lines per set stays resident"
    ~count:100
    (QCheck.make QCheck.Gen.(int_range 0 1000))
    (fun base ->
      let c = mk () in
      let addrs = [ base * 64; (base * 64) + 4096 ] in
      List.iter (fun a -> ignore (Sacache.access c ~addr:a ~write:false)) addrs;
      List.for_all (fun a -> is_hit (Sacache.access c ~addr:a ~write:false)) addrs)

(* Reference model: each set a list of (line, dirty), most recently used
   first, holding at most [ways] lines; a fill into a full set evicts the
   list's last line.  The set index repeats Sacache's (optionally
   XOR-folded) mapping. *)
type model = {
  m_line : int;
  m_sets : int;
  m_ways : int;
  m_hash : bool;
  m_set : (int * bool) list array;
}

let model ~hash ~line ~ways ~sets =
  {
    m_line = line;
    m_sets = sets;
    m_ways = ways;
    m_hash = hash;
    m_set = Array.make sets [];
  }

let model_set m line =
  let idx = line / m.m_line in
  let idx =
    if m.m_hash then
      idx lxor (idx / m.m_sets) lxor (idx / (m.m_sets * m.m_sets))
    else idx
  in
  idx mod m.m_sets

let model_line m addr = addr / m.m_line * m.m_line

let model_access m ~addr ~write =
  let line = model_line m addr in
  let s = model_set m line in
  let lines = m.m_set.(s) in
  match List.assoc_opt line lines with
  | Some dirty ->
    m.m_set.(s) <- (line, dirty || write) :: List.remove_assoc line lines;
    Sacache.Hit
  | None ->
    let kept, evicted =
      if List.length lines < m.m_ways then (lines, None)
      else
        let rev = List.rev lines in
        (List.rev (List.tl rev), Some (List.hd rev))
    in
    m.m_set.(s) <- (line, write) :: kept;
    Sacache.Miss
      {
        evicted = Option.map fst evicted;
        evicted_dirty = (match evicted with Some (_, d) -> d | None -> false);
      }

let model_probe m ~addr =
  let line = model_line m addr in
  List.mem_assoc line m.m_set.(model_set m line)

let model_invalidate m ~addr =
  let line = model_line m addr in
  let s = model_set m line in
  match List.assoc_opt line m.m_set.(s) with
  | None -> false
  | Some dirty ->
    m.m_set.(s) <- List.remove_assoc line m.m_set.(s);
    dirty

type cache_op = Access of int * bool | Probe of int | Invalidate of int

let prop_sacache_matches_model =
  QCheck.Test.make ~name:"access/probe/invalidate match a list-LRU model" ~count:300
    (QCheck.make
       ~print:(fun ((line, ways, sets, hash), ops) ->
         Printf.sprintf "line=%d ways=%d sets=%d hash=%b ops=%d" line ways sets hash
           (List.length ops))
       QCheck.Gen.(
         let* geometry =
           quad (oneofl [ 32; 64 ]) (int_range 1 4) (oneofl [ 1; 2; 3; 4; 6; 8 ]) bool
         in
         let line, ways, sets, _ = geometry in
         (* addresses over 4x the capacity, so sets conflict and evict *)
         let addr = int_range 0 ((4 * line * ways * sets) - 1) in
         let op =
           frequency
             [
               (6, map2 (fun a w -> Access (a, w)) addr bool);
               (1, map (fun a -> Probe a) addr);
               (1, map (fun a -> Invalidate a) addr);
             ]
         in
         pair (return geometry) (list_size (int_range 1 200) op)))
    (fun ((line, ways, sets, hash), ops) ->
      let c =
        Sacache.create ~hash_sets:hash ~size_bytes:(line * ways * sets) ~line_bytes:line
          ~ways ()
      in
      let m = model ~hash ~line ~ways ~sets in
      List.for_all
        (function
          | Access (addr, write) ->
            Sacache.access c ~addr ~write = model_access m ~addr ~write
          | Probe addr -> Sacache.probe c ~addr = model_probe m ~addr
          | Invalidate addr -> Sacache.invalidate c ~addr = model_invalidate m ~addr)
        ops)

(* --- directory --- *)

let test_directory_basic () =
  let d = Directory.create ~nodes:64 in
  Alcotest.(check (list int)) "empty" [] (Directory.holders d ~line:0x100);
  Directory.add_holder d ~line:0x100 ~node:5;
  Directory.add_holder d ~line:0x100 ~node:63;
  Alcotest.(check (list int)) "two holders" [ 5; 63 ] (Directory.holders d ~line:0x100);
  Directory.remove_holder d ~line:0x100 ~node:5;
  Alcotest.(check (list int)) "one left" [ 63 ] (Directory.holders d ~line:0x100);
  Directory.remove_holder d ~line:0x100 ~node:63;
  Alcotest.(check (list int)) "empty again" [] (Directory.holders d ~line:0x100)

let test_directory_closest () =
  let d = Directory.create ~nodes:64 in
  Directory.add_holder d ~line:7 ~node:10;
  Directory.add_holder d ~line:7 ~node:40;
  let dist_from x n = abs (n - x) in
  Alcotest.(check int) "closest to 12" 10
    (Directory.closest_holder d ~line:7 ~excluding:(-1) ~distance:(dist_from 12) ());
  Alcotest.(check int) "closest to 39" 40
    (Directory.closest_holder d ~line:7 ~excluding:(-1) ~distance:(dist_from 39) ());
  (* the requester itself is never returned *)
  Alcotest.(check int) "excluding self" 40
    (Directory.closest_holder d ~line:7 ~excluding:10 ~distance:(dist_from 10) ());
  Directory.remove_holder d ~line:7 ~node:40;
  Alcotest.(check int) "no other holder" (-1)
    (Directory.closest_holder d ~line:7 ~excluding:10 ~distance:(dist_from 0) ())

let prop_directory_membership =
  QCheck.Test.make ~name:"add/remove holder tracks membership" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 0 30)
              (* nodes 62 and 63 live in the second holder word *)
              (pair (frequency [ (3, int_range 0 63); (1, int_range 60 63) ]) bool))
           (array_size (return 64) (int_range 0 4))
           (int_range 0 63)))
    (fun (ops, dist, excluding) ->
      let d = Directory.create ~nodes:64 in
      let expected = Hashtbl.create 16 in
      List.iter
        (fun (node, add) ->
          if add then begin
            Directory.add_holder d ~line:1 ~node;
            Hashtbl.replace expected node ()
          end
          else begin
            Directory.remove_holder d ~line:1 ~node;
            Hashtbl.remove expected node
          end)
        ops;
      let want = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) expected []) in
      (* closest holder: the first minimum of the distance table over the
         ascending holder list, -1 when none is left *)
      let first_min nodes =
        List.fold_left
          (fun b n -> if b < 0 || dist.(n) < dist.(b) then n else b)
          (-1) nodes
      in
      let distance n = dist.(n) in
      Directory.holders d ~line:1 = want
      && Directory.closest_holder d ~line:1 ~excluding:(-1) ~distance () = first_min want
      && Directory.closest_holder d ~line:1 ~excluding ~distance ()
         = first_min (List.filter (( <> ) excluding) want))

(* Churn against a list-of-holders model: ~4000 distinct lines enter the
   table (forcing growth past the initial 4096 slots, to a final load near
   one half, so probe chains are long and some wrap around the table's
   end), then random adds and removes (most removes take a line's last
   holder, so backward-shift deletion runs inside those chains).  The
   touched line is checked after every step and every line at
   checkpoints. *)
let prop_directory_churn =
  QCheck.Test.make ~name:"directory churn matches a holder-list model" ~count:8
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let nodes = 64 in
      let d = Directory.create ~nodes in
      let model : (int, int list) Hashtbl.t = Hashtbl.create 4096 in
      let lines =
        let seen = Hashtbl.create 4096 in
        let acc = ref [ 0 ] in
        Hashtbl.replace seen 0 ();
        while Hashtbl.length seen < 4000 do
          let l = Random.State.bits rs * 256 in
          if not (Hashtbl.mem seen l) then begin
            Hashtbl.replace seen l ();
            acc := l :: !acc
          end
        done;
        Array.of_list !acc
      in
      let get line = Option.value (Hashtbl.find_opt model line) ~default:[] in
      let add line node =
        Directory.add_holder d ~line ~node;
        Hashtbl.replace model line (List.sort_uniq compare (node :: get line))
      in
      let remove line node =
        Directory.remove_holder d ~line ~node;
        match List.filter (( <> ) node) (get line) with
        | [] -> Hashtbl.remove model line
        | l -> Hashtbl.replace model line l
      in
      let distance n = (n * 7) mod 13 in
      let agrees line =
        let want = get line in
        let first_min excluding =
          List.fold_left
            (fun b n ->
              if n = excluding then b
              else if b < 0 || distance n < distance b then n
              else b)
            (-1) want
        in
        let excluding = match want with n :: _ -> n | [] -> -1 in
        Directory.holders d ~line = want
        && Directory.closest_holder d ~line ~excluding:(-1) ~distance ()
           = first_min (-1)
        && Directory.closest_holder d ~line ~excluding ~distance ()
           = first_min excluding
      in
      let all_agree () = Array.for_all agrees lines in
      Array.iter (fun l -> add l (Random.State.int rs nodes)) lines;
      let ok = ref (all_agree ()) in
      for step = 1 to 6000 do
        let line = lines.(Random.State.int rs (Array.length lines)) in
        (match get line with
        | n :: _ when Random.State.int rs 4 > 0 -> remove line n
        | _ ->
          if Random.State.bool rs then add line (Random.State.int rs nodes)
          else remove line (Random.State.int rs nodes));
        ok := !ok && agrees line;
        if step mod 1500 = 0 then ok := !ok && all_agree ()
      done;
      Directory.clear d;
      !ok && Array.for_all (fun line -> Directory.holders d ~line = []) lines)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "cache.sacache",
      [
        Alcotest.test_case "geometry" `Quick test_geometry;
        Alcotest.test_case "hit after fill" `Quick test_hit_after_fill;
        Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
        Alcotest.test_case "dirty writeback" `Quick test_dirty_writeback;
        Alcotest.test_case "probe/invalidate" `Quick test_probe_invalidate;
        Alcotest.test_case "stats/clear" `Quick test_stats_and_clear;
        Alcotest.test_case "set hashing" `Quick test_hash_spreads_aliases;
      ]
      @ qsuite [ prop_lru_working_set; prop_sacache_matches_model ] );
    ( "cache.directory",
      [
        Alcotest.test_case "holders" `Quick test_directory_basic;
        Alcotest.test_case "closest holder" `Quick test_directory_closest;
      ]
      @ qsuite [ prop_directory_membership; prop_directory_churn ] );
  ]
