(* Tests for the DRAM substrate: timing, physical address interpretation
   and the FR-FCFS controller. *)

module Timing = Dram.Timing
module Address_map = Dram.Address_map
module Fr_fcfs = Dram.Fr_fcfs

let test_timing () =
  let t = Timing.ddr3_1600 in
  Alcotest.(check bool) "hit < empty < conflict" true
    (t.Timing.row_hit < t.Timing.row_empty && t.Timing.row_empty < t.Timing.row_conflict);
  Alcotest.(check bool) "burst within hit" true (t.Timing.burst <= t.Timing.row_hit);
  let s = Timing.scale 2.0 t in
  Alcotest.(check int) "scale doubles" (2 * t.Timing.row_hit) s.Timing.row_hit

let line_map = Address_map.make ~interleaving:Address_map.Line_interleaved ~num_mcs:4 ()

let page_map = Address_map.make ~interleaving:Address_map.Page_interleaved ~num_mcs:4 ()

let test_line_interleaving () =
  (* consecutive 256B lines rotate over controllers *)
  Alcotest.(check (list int)) "line rotation" [ 0; 1; 2; 3; 0 ]
    (List.init 5 (fun i -> Address_map.mc_of_paddr line_map (i * 256)));
  (* within a line, same controller *)
  Alcotest.(check int) "same line same mc"
    (Address_map.mc_of_paddr line_map 256)
    (Address_map.mc_of_paddr line_map 511);
  (* virtual = physical selection under line interleaving *)
  Alcotest.(check int) "vaddr agrees" 2 (Address_map.mc_of_vaddr_line line_map 512)

let test_page_interleaving () =
  Alcotest.(check (list int)) "page rotation" [ 0; 1; 2; 3 ]
    (List.init 4 (fun i -> Address_map.mc_of_paddr page_map (i * 4096)));
  Alcotest.(check int) "whole page same mc"
    (Address_map.mc_of_paddr page_map 4096)
    (Address_map.mc_of_paddr page_map (4096 + 4095));
  Alcotest.check_raises "vaddr selection invalid under page interleaving"
    (Invalid_argument "Address_map.mc_of_vaddr_line: page-interleaved") (fun () ->
      ignore (Address_map.mc_of_vaddr_line page_map 0))

let test_bank_row () =
  (* channel-consecutive row buffers rotate over banks *)
  let mc0_addrs = List.init 8 (fun i -> i * 4 * 4096) in
  (* every 4th page is on MC0 under line interleaving?  use page_map: pages
     0,4,8,.. are MC0; their channel addresses are consecutive pages *)
  let banks = List.map (Address_map.bank_of_paddr page_map) mc0_addrs in
  Alcotest.(check (list int)) "banks rotate" [ 0; 1; 2; 3; 0; 1; 2; 3 ] banks;
  let rows = List.map (Address_map.row_of_paddr page_map) mc0_addrs in
  Alcotest.(check (list int)) "rows advance every banks_per_mc pages"
    [ 0; 0; 0; 0; 1; 1; 1; 1 ] rows

let prop_mc_partition =
  QCheck.Test.make ~name:"every address maps to a valid controller and bank"
    ~count:500
    (QCheck.make QCheck.Gen.(int_range 0 100_000_000))
    (fun paddr ->
      let ok map =
        let m = Address_map.mc_of_paddr map paddr in
        let b = Address_map.bank_of_paddr map paddr in
        m >= 0 && m < 4 && b >= 0 && b < 4 && Address_map.row_of_paddr map paddr >= 0
      in
      ok line_map && ok page_map)

(* --- FR-FCFS --- *)

(* completions as records (the reference model's type), read back from
   the controller's completion accessors *)
type completion = Fr_fcfs_ref.completion = {
  id : int;
  start : int;
  finish : int;
  queue_delay : int;
  row_hit : bool;
}

let advance mc ~now =
  List.init (Fr_fcfs.advance mc ~now) (fun i ->
      {
        id = Fr_fcfs.completion_id mc i;
        start = Fr_fcfs.completion_start mc i;
        finish = Fr_fcfs.completion_finish mc i;
        queue_delay = Fr_fcfs.completion_queue_delay mc i;
        row_hit = Fr_fcfs.completion_row_hit mc i;
      })

let drain mc =
  let rec go acc now =
    let t = Fr_fcfs.next_wake mc in
    if t = max_int then acc
    else
      let t = max t (now + 1) in
      go (acc @ advance mc ~now:t) t
  in
  go (advance mc ~now:0) 0

let test_row_hit_priority () =
  let mc = Fr_fcfs.create ~banks:1 () in
  (* open row 5 via a first request, then queue a conflict and a hit *)
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:5 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:1 ~bank:0 ~row:9 ~id:2 ();
  Fr_fcfs.enqueue mc ~now:2 ~bank:0 ~row:5 ~id:3 ();
  let completions = drain mc in
  let order = List.map (fun c -> c.id) completions in
  Alcotest.(check (list int)) "row hit served before older conflict" [ 1; 3; 2 ] order;
  let by_id i = List.find (fun c -> c.id = i) completions in
  Alcotest.(check bool) "3 was a row hit" true (by_id 3).row_hit;
  Alcotest.(check bool) "2 was a conflict" false (by_id 2).row_hit

let test_bank_parallelism () =
  let t = Timing.ddr3_1600 in
  let mc = Fr_fcfs.create ~channels:2 ~banks:2 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:0 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:1 ~row:0 ~id:2 ();
  let completions = drain mc in
  let finish i = (List.find (fun c -> c.id = i) completions).finish in
  (* with independent channels both complete at row_empty time *)
  Alcotest.(check int) "bank 0" t.Timing.row_empty (finish 1);
  Alcotest.(check int) "bank 1 overlaps" t.Timing.row_empty (finish 2)

let test_bus_serialization () =
  let t = Timing.ddr3_1600 in
  let mc = Fr_fcfs.create ~channels:1 ~banks:2 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:0 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:1 ~row:0 ~id:2 ();
  let completions = drain mc in
  let finish i = (List.find (fun c -> c.id = i) completions).finish in
  (* one data bus: the second burst waits for the first *)
  Alcotest.(check int) "first at row_empty" t.Timing.row_empty (finish 1);
  Alcotest.(check int) "second delayed by one burst" (t.Timing.row_empty + t.Timing.burst)
    (finish 2)

let test_write_drain () =
  let mc = Fr_fcfs.create ~banks:1 () in
  (* a write arrives first, then a read: the read must win *)
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:1 ~write:true ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:2 ~id:2 ();
  let order = List.map (fun c -> c.id) (drain mc) in
  Alcotest.(check (list int)) "read priority" [ 2; 1 ] order

let test_fcfs_scheduler () =
  (* strict FCFS ignores the open row: arrival order wins *)
  let mc = Fr_fcfs.create ~scheduler:Fr_fcfs.Fcfs ~banks:1 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:5 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:1 ~bank:0 ~row:9 ~id:2 ();
  Fr_fcfs.enqueue mc ~now:2 ~bank:0 ~row:5 ~id:3 ();
  let order = List.map (fun c -> c.id) (drain mc) in
  Alcotest.(check (list int)) "arrival order" [ 1; 2; 3 ] order

let test_closed_page () =
  (* with auto-precharge no access is ever a row hit *)
  let mc = Fr_fcfs.create ~row_policy:Fr_fcfs.Closed_page ~banks:1 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:5 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:5 ~id:2 ();
  let completions = drain mc in
  Alcotest.(check int) "no row hits" 0 (Fr_fcfs.row_hits mc);
  List.iter
    (fun (c : completion) ->
      Alcotest.(check bool) "each completion cold" false c.row_hit)
    completions

let test_queue_accounting () =
  let mc = Fr_fcfs.create ~banks:1 () in
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:0 ~id:1 ();
  Fr_fcfs.enqueue mc ~now:0 ~bank:0 ~row:0 ~id:2 ();
  Alcotest.(check int) "pending" 2 (Fr_fcfs.pending mc);
  let completions = drain mc in
  Alcotest.(check int) "drained" 0 (Fr_fcfs.pending mc);
  Alcotest.(check int) "served" 2 (Fr_fcfs.served mc);
  let second = List.find (fun c -> c.id = 2) completions in
  Alcotest.(check bool) "queue delay recorded" true (second.queue_delay > 0);
  Alcotest.(check bool) "occupancy positive" true
    (Fr_fcfs.occupancy mc ~at:second.finish > 0.)

let prop_all_served =
  QCheck.Test.make ~name:"every enqueued request completes exactly once" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 30) (pair (int_range 0 3) (int_range 0 5))))
    (fun reqs ->
      let mc = Fr_fcfs.create ~banks:4 () in
      List.iteri
        (fun i (bank, row) -> Fr_fcfs.enqueue mc ~now:i ~bank ~row ~id:i ())
        reqs;
      let completions = drain mc in
      let ids = List.sort compare (List.map (fun c -> c.id) completions) in
      ids = List.init (List.length reqs) Fun.id
      && List.for_all
           (fun (c : completion) -> c.start >= c.id)
           completions
      (* start >= arrival (= id here) *))

(* Differential check against the list-based reference model: the same
   random interleaving of enqueues and advances drives both, and after
   every step the completions and the next wake must agree.  Every case
   carries a burst of 17-24 writes enqueued back to back, so the pending
   writes cross the drain watermark upwards, and the final drain brings
   them back down across it. *)
type op = Enq of { dt : int; bank : int; row : int; write : bool } | Adv of int

let gen_case =
  let open QCheck.Gen in
  let* banks = int_range 1 8 in
  let* channels = int_range 1 4 in
  let* fcfs = bool in
  let* closed = bool in
  let enq ~dt ~p_write =
    map3
      (fun dt (bank, row) w -> Enq { dt; bank; row; write = w < p_write })
      dt
      (pair (int_range 0 (banks - 1)) (int_range 0 3))
      (float_bound_exclusive 1.)
  in
  let op =
    frequency
      [
        (3, enq ~dt:(int_range 0 6) ~p_write:0.4);
        (1, map (fun dt -> Adv dt) (int_range 0 150));
      ]
  in
  let* pre = list_size (int_range 0 40) op in
  let* burst = list_size (int_range 17 24) (enq ~dt:(int_range 0 2) ~p_write:1.) in
  let* post = list_size (int_range 0 40) op in
  return ((banks, channels, fcfs, closed), pre @ burst @ post)

let print_case ((banks, channels, fcfs, closed), ops) =
  Printf.sprintf "banks=%d channels=%d %s %s [%s]" banks channels
    (if fcfs then "fcfs" else "fr-fcfs")
    (if closed then "closed" else "open")
    (String.concat "; "
       (List.map
          (function
            | Enq { dt; bank; row; write } ->
              Printf.sprintf "+%d %c b%d r%d" dt (if write then 'W' else 'R') bank row
            | Adv dt -> Printf.sprintf "adv +%d" dt)
          ops))

let prop_matches_reference =
  QCheck.Test.make ~name:"matches the list-based reference model step by step"
    ~count:300 (QCheck.make ~print:print_case gen_case)
    (fun ((banks, channels, fcfs, closed), ops) ->
      let scheduler = if fcfs then Fr_fcfs.Fcfs else Fr_fcfs.Fr_fcfs in
      let row_policy = if closed then Fr_fcfs.Closed_page else Fr_fcfs.Open_page in
      let mc = Fr_fcfs.create ~channels ~scheduler ~row_policy ~banks () in
      let reference =
        Fr_fcfs_ref.create ~channels
          ~scheduler:(if fcfs then Fr_fcfs_ref.Fcfs else Fr_fcfs_ref.Fr_fcfs)
          ~row_policy:
            (if closed then Fr_fcfs_ref.Closed_page else Fr_fcfs_ref.Open_page)
          ~banks ()
      in
      let writes = Hashtbl.create 64 and pending_writes = ref 0 in
      let most_writes = ref 0 in
      let same_step got want =
        List.iter (fun c -> if Hashtbl.mem writes c.id then decr pending_writes) want;
        let wake_ref =
          match Fr_fcfs_ref.next_wake reference with None -> max_int | Some w -> w
        in
        got = want && Fr_fcfs.next_wake mc = wake_ref
        && Fr_fcfs.pending mc = Fr_fcfs_ref.pending reference
      in
      let now = ref 0 and next_id = ref 0 in
      let step = function
        | Enq { dt; bank; row; write } ->
          now := !now + dt;
          let id = !next_id in
          incr next_id;
          if write then begin
            Hashtbl.replace writes id ();
            incr pending_writes;
            most_writes := max !most_writes !pending_writes
          end;
          Fr_fcfs.enqueue mc ~now:!now ~bank ~row ~write ~id ();
          Fr_fcfs_ref.enqueue reference ~now:!now ~bank ~row ~write ~id ();
          same_step [] []
        | Adv dt ->
          now := !now + dt;
          same_step (advance mc ~now:!now) (Fr_fcfs_ref.advance reference ~now:!now)
      in
      let rec drain () =
        let w = Fr_fcfs.next_wake mc in
        w = max_int
        || begin
             now := max w (!now + 1);
             same_step (advance mc ~now:!now) (Fr_fcfs_ref.advance reference ~now:!now)
             && drain ()
           end
      in
      List.for_all step ops && drain ()
      (* the case really crossed the watermark up, and drained back down *)
      && !most_writes > 16 && !pending_writes = 0
      && Fr_fcfs.served mc = Fr_fcfs_ref.served reference
      && Fr_fcfs.row_hits mc = Fr_fcfs_ref.row_hits reference
      && Fr_fcfs.max_pending mc = Fr_fcfs_ref.max_pending reference
      && Fr_fcfs.occupancy mc ~at:!now = Fr_fcfs_ref.occupancy reference ~at:!now)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ("dram.timing", [ Alcotest.test_case "ddr3-1600" `Quick test_timing ]);
    ( "dram.address_map",
      [
        Alcotest.test_case "line interleaving" `Quick test_line_interleaving;
        Alcotest.test_case "page interleaving" `Quick test_page_interleaving;
        Alcotest.test_case "bank/row" `Quick test_bank_row;
      ]
      @ qsuite [ prop_mc_partition ] );
    ( "dram.fr_fcfs",
      [
        Alcotest.test_case "row-hit priority" `Quick test_row_hit_priority;
        Alcotest.test_case "bank parallelism" `Quick test_bank_parallelism;
        Alcotest.test_case "bus serialization" `Quick test_bus_serialization;
        Alcotest.test_case "write drain" `Quick test_write_drain;
        Alcotest.test_case "FCFS baseline" `Quick test_fcfs_scheduler;
        Alcotest.test_case "closed page" `Quick test_closed_page;
        Alcotest.test_case "queue accounting" `Quick test_queue_accounting;
      ]
      @ qsuite [ prop_all_served; prop_matches_reference ] );
  ]
