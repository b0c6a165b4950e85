(* Tests for the OS substrate: translation and page-allocation policies. *)

module Address_map = Dram.Address_map
module Page_alloc = Os_sim.Page_alloc

let line_map = Address_map.make ~interleaving:Address_map.Line_interleaved ~num_mcs:4 ()

let page_map = Address_map.make ~interleaving:Address_map.Page_interleaved ~num_mcs:4 ()

let test_translation_stable () =
  let pa = Page_alloc.create ~map:page_map ~policy:Page_alloc.Hardware_interleaved () in
  let p1 = Page_alloc.translate pa ~node:0 ~vaddr:12345 in
  let p2 = Page_alloc.translate pa ~node:9 ~vaddr:12345 in
  Alcotest.(check int) "same vaddr same paddr" p1 p2;
  Alcotest.(check int) "page offset preserved" (12345 mod 4096) (p1 mod 4096);
  let q = Page_alloc.translate pa ~node:0 ~vaddr:(12345 + 4096) in
  Alcotest.(check bool) "different page different frame" true (q / 4096 <> p1 / 4096);
  Alcotest.(check int) "two pages allocated" 2 (Page_alloc.pages_allocated pa)

let test_line_interleaved_mode () =
  (* under line interleaving the MC bits are inside the page offset *)
  let pa = Page_alloc.create ~map:line_map ~policy:Page_alloc.Hardware_interleaved () in
  let paddr = Page_alloc.translate pa ~node:3 ~vaddr:(4096 + 256) in
  Alcotest.(check int) "controller decided by the offset bits" 1
    (Address_map.mc_of_paddr line_map paddr);
  Alcotest.(check (option int)) "no per-page controller" None
    (Page_alloc.mc_of_vpage pa 1)

let test_hardware_interleaved_rotation () =
  (* allocation-order rotation models sequential frame allocation *)
  let pa = Page_alloc.create ~map:page_map ~policy:Page_alloc.Hardware_interleaved () in
  let mcs =
    List.init 8 (fun i ->
        let paddr = Page_alloc.translate pa ~node:0 ~vaddr:(i * 4096) in
        Address_map.mc_of_paddr page_map paddr)
  in
  (* all four controllers are used *)
  Alcotest.(check int) "all controllers used" 4
    (List.length (List.sort_uniq compare mcs))

let test_first_touch () =
  let cluster_mc node = node / 16 in
  let pa = Page_alloc.create ~map:page_map ~policy:(Page_alloc.First_touch cluster_mc) () in
  let paddr = Page_alloc.translate pa ~node:20 ~vaddr:0 in
  Alcotest.(check int) "page on first toucher's controller" 1
    (Address_map.mc_of_paddr page_map paddr);
  (* later touches from other nodes do not move it *)
  let paddr2 = Page_alloc.translate pa ~node:55 ~vaddr:8 in
  Alcotest.(check int) "sticky placement" (paddr + 8) paddr2;
  Alcotest.(check (option int)) "vpage controller" (Some 1) (Page_alloc.mc_of_vpage pa 0)

let test_mc_aware () =
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun vpage -> Some ((vpage + 2) mod 4));
             fallback = (fun _ -> 0) })
      ()
  in
  for v = 0 to 7 do
    let paddr = Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096) in
    Alcotest.(check int)
      (Printf.sprintf "page %d honored" v)
      ((v + 2) mod 4)
      (Address_map.mc_of_paddr page_map paddr)
  done;
  Alcotest.(check int) "no fallbacks" 0 (Page_alloc.fallback_allocations pa)

let test_mc_aware_fallback () =
  (* 2 frames per controller: the third page desiring MC0 must spill to an
     alternate controller instead of faulting (Section 5.3) *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun _ -> Some 0); fallback = (fun _ -> 0) })
      ~frames_per_mc:2 ()
  in
  let mcs =
    List.init 6 (fun v ->
        Address_map.mc_of_paddr page_map (Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096)))
  in
  Alcotest.(check (list int)) "first two honored, rest spill" [ 0; 0; 1; 1; 2; 2 ] mcs;
  Alcotest.(check int) "fallbacks counted" 4 (Page_alloc.fallback_allocations pa)

let test_mc_aware_fallback_policy () =
  (* unhinted pages are placed by first touch (the hybrid of Section 6.4) *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun vpage -> if vpage < 2 then Some 3 else None);
             fallback = (fun node -> node / 16) })
      ()
  in
  let mc v node = Address_map.mc_of_paddr page_map (Page_alloc.translate pa ~node ~vaddr:(v * 4096)) in
  Alcotest.(check int) "hinted page honored" 3 (mc 0 0);
  Alcotest.(check int) "unhinted page by first touch" 2 (mc 5 40)

let test_free_region_reclaim () =
  (* a departing tenant's frames refill its controller: with MC0's two
     frames both taken, freeing one page lets the next allocation honor
     the desired controller again instead of spilling *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun _ -> Some 0); fallback = (fun _ -> 0) })
      ~frames_per_mc:2 ()
  in
  let mc v = Address_map.mc_of_paddr page_map (Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096)) in
  Alcotest.(check int) "first page on MC0" 0 (mc 0);
  Alcotest.(check int) "second page on MC0" 0 (mc 1);
  Alcotest.(check int) "freed one page" 1
    (Page_alloc.free_region pa ~first_vpage:0 ~last_vpage:0);
  Alcotest.(check int) "one live page left" 1 (Page_alloc.pages_allocated pa);
  Alcotest.(check int) "reclaimed frame honors the hint again" 0 (mc 7);
  Alcotest.(check int) "no fallbacks along the way" 0
    (Page_alloc.fallback_allocations pa);
  Alcotest.(check int) "empty range frees nothing" 0
    (Page_alloc.free_region pa ~first_vpage:100 ~last_vpage:120)

let test_first_touch_full_falls_back () =
  (* a full controller under first touch must spill to a neighbor, not
     over-allocate past its frame budget *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:(Page_alloc.First_touch (fun _ -> 0))
      ~frames_per_mc:2 ()
  in
  let mc v = Address_map.mc_of_paddr page_map (Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096)) in
  Alcotest.(check (list int)) "budget enforced: third page spills" [ 0; 0; 1 ]
    (List.init 3 mc);
  Alcotest.(check int) "the spill is a counted fallback" 1
    (Page_alloc.fallback_allocations pa)

let test_per_owner_fallbacks () =
  (* fallbacks are charged to the owner tag that suffered them *)
  let pa =
    Page_alloc.create ~map:page_map
      ~policy:
        (Page_alloc.Mc_aware
           { desired = (fun _ -> Some 0); fallback = (fun _ -> 0) })
      ~frames_per_mc:2 ()
  in
  let alloc owner v =
    ignore (Page_alloc.translate_owned pa ~owner ~node:0 ~vaddr:(v * 4096))
  in
  alloc 7 0;
  alloc 7 1;
  (* MC0 is now full: owner 9's pages spill *)
  alloc 9 2;
  alloc 9 3;
  Alcotest.(check int) "owner 7 clean" 0
    (Page_alloc.fallback_allocations_of pa ~owner:7);
  Alcotest.(check int) "owner 9 charged twice" 2
    (Page_alloc.fallback_allocations_of pa ~owner:9);
  Alcotest.(check int) "global total agrees" 2
    (Page_alloc.fallback_allocations pa)

let test_line_mode_capacity_and_reuse () =
  (* line-interleaved mode is bounded by the same total budget and reuses
     reclaimed frames *)
  let pa =
    Page_alloc.create ~map:line_map ~policy:Page_alloc.Hardware_interleaved
      ~frames_per_mc:1 ()
  in
  let frame v = Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096) / 4096 in
  let f0 = frame 0 in
  let f1 = frame 1 in
  ignore (frame 2);
  ignore (frame 3);
  Alcotest.(check bool) "capacity reached raises" true
    (match frame 4 with
    | _ -> false
    | exception Failure _ -> true);
  Alcotest.(check int) "freed two pages" 2
    (Page_alloc.free_region pa ~first_vpage:0 ~last_vpage:1);
  let reused = frame 9 in
  Alcotest.(check bool) "reclaimed frame reused" true
    (List.mem reused [ f0; f1 ])

let test_reset () =
  let pa = Page_alloc.create ~map:page_map ~policy:Page_alloc.Hardware_interleaved () in
  ignore (Page_alloc.translate pa ~node:0 ~vaddr:0);
  Page_alloc.reset pa;
  Alcotest.(check int) "no pages after reset" 0 (Page_alloc.pages_allocated pa)

let prop_translation_injective =
  QCheck.Test.make ~name:"distinct pages get distinct frames" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 50) (int_range 0 200)))
    (fun vpages ->
      let pa = Page_alloc.create ~map:page_map ~policy:Page_alloc.Hardware_interleaved () in
      let frames =
        List.map (fun v -> Page_alloc.translate pa ~node:0 ~vaddr:(v * 4096) / 4096)
          (List.sort_uniq compare vpages)
      in
      List.length frames = List.length (List.sort_uniq compare frames))

(* The radix page table against the Hashtbl-backed allocator it replaced
   (the reference model), call for call: map, free and re-map across
   sparse 256 MB slices (as the consolidation server lays tenants out),
   pages on leaf boundaries, negative addresses and pages past the radix
   range, and frees that cross from one region into the next.  Small per-controller budgets force fallbacks and exhaustion. *)
type pa_op =
  | Touch of { slice : int; page : int; offset : int; node : int; owner : int }
  | Free_slice of int
  | Free_range of int * int
  | Reset

let slice_pages = (1 lsl 28) / 4096

let prop_radix_matches_hashtbl =
  let slice = QCheck.Gen.oneofl [ -1; 0; 1; 2; 7; 4095; 4096; 4097 ] in
  let page =
    QCheck.Gen.(
      frequency
        [
          (2, return 0);
          (4, int_range 0 40);
          (2, int_range 4090 4100);
          (1, int_range 0 (slice_pages - 1));
        ])
  in
  QCheck.Test.make ~name:"radix page table matches the Hashtbl model" ~count:100
    (QCheck.make
       ~print:(fun ((line, policy, budget), ops) ->
         Printf.sprintf "line=%b policy=%d budget=%d ops=%d" line policy budget
           (List.length ops))
       QCheck.Gen.(
         pair
           (triple bool (int_range 0 2) (oneofl [ 8; 64 ]))
           (list_size (int_range 1 200)
              (frequency
                 [
                   ( 24,
                     map3
                       (fun (slice, page) offset (node, owner) ->
                         Touch { slice; page; offset; node; owner })
                       (pair slice page) (int_range 0 4095)
                       (pair (int_range 0 63) (int_range (-1) 2)) );
                   (1, map (fun s -> Free_slice s) slice);
                   ( 4,
                     map2
                       (fun (s, p) len -> Free_range ((s * slice_pages) + p, len))
                       (pair slice page) (int_range 0 9000) );
                   (* ranges that cross into a slice from below *)
                   ( 2,
                     map2
                       (fun s back -> Free_range ((s * slice_pages) - back, 2 * back))
                       slice (int_range 1 50) );
                   (1, return Reset);
                 ]))))
    (fun ((line, policy, budget), ops) ->
      let map = if line then line_map else page_map in
      let first_touch n = n mod 4 in
      let desired v = if v mod 3 = 0 then None else Some (abs (v / 3) mod 4) in
      let pa =
        Page_alloc.create ~map ~frames_per_mc:budget
          ~policy:
            (match policy with
            | 0 -> Page_alloc.Hardware_interleaved
            | 1 -> Page_alloc.First_touch first_touch
            | _ -> Page_alloc.Mc_aware { desired; fallback = first_touch })
          ()
      and rf =
        Page_alloc_ref.create ~map ~frames_per_mc:budget
          ~policy:
            (match policy with
            | 0 -> Page_alloc_ref.Hardware_interleaved
            | 1 -> Page_alloc_ref.First_touch first_touch
            | _ -> Page_alloc_ref.Mc_aware { desired; fallback = first_touch })
          ()
      in
      let touched = ref [] in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception (Failure e | Invalid_argument e) -> Error e
      in
      let step = function
        | Touch { slice; page; offset; node; owner } ->
          let vaddr = (slice * (1 lsl 28)) + (page * 4096) + offset in
          touched := (vaddr / 4096) :: !touched;
          outcome (fun () -> Page_alloc.translate_owned pa ~owner ~node ~vaddr)
          = outcome (fun () -> Page_alloc_ref.translate_owned rf ~owner ~node ~vaddr)
        | Free_slice s ->
          let first_vpage = s * slice_pages in
          let last_vpage = first_vpage + slice_pages - 1 in
          Page_alloc.free_region pa ~first_vpage ~last_vpage
          = Page_alloc_ref.free_region rf ~first_vpage ~last_vpage
        | Free_range (first_vpage, len) ->
          let last_vpage = first_vpage + len in
          Page_alloc.free_region pa ~first_vpage ~last_vpage
          = Page_alloc_ref.free_region rf ~first_vpage ~last_vpage
        | Reset ->
          Page_alloc.reset pa;
          Page_alloc_ref.reset rf;
          true
      in
      let same_counts () =
        Page_alloc.pages_allocated pa = Page_alloc_ref.pages_allocated rf
        && Page_alloc.fallback_allocations pa
           = Page_alloc_ref.fallback_allocations rf
      in
      List.for_all (fun op -> step op && same_counts ()) ops
      && List.for_all
           (fun v -> Page_alloc.mc_of_vpage pa v = Page_alloc_ref.mc_of_vpage rf v)
           !touched
      && List.for_all
           (fun owner ->
             Page_alloc.fallback_allocations_of pa ~owner
             = Page_alloc_ref.fallback_allocations_of rf ~owner)
           [ 0; 1; 2 ])

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  [
    ( "os.page_alloc",
      [
        Alcotest.test_case "translation stable" `Quick test_translation_stable;
        Alcotest.test_case "line-interleaved mode" `Quick test_line_interleaved_mode;
        Alcotest.test_case "hardware rotation" `Quick test_hardware_interleaved_rotation;
        Alcotest.test_case "first touch" `Quick test_first_touch;
        Alcotest.test_case "mc-aware" `Quick test_mc_aware;
        Alcotest.test_case "mc-aware fallback" `Quick test_mc_aware_fallback;
        Alcotest.test_case "mc-aware unhinted = first touch" `Quick
          test_mc_aware_fallback_policy;
        Alcotest.test_case "free_region reclaims frames" `Quick
          test_free_region_reclaim;
        Alcotest.test_case "first-touch budget fallback" `Quick
          test_first_touch_full_falls_back;
        Alcotest.test_case "per-owner fallback counters" `Quick
          test_per_owner_fallbacks;
        Alcotest.test_case "line-mode capacity and reuse" `Quick
          test_line_mode_capacity_and_reuse;
        Alcotest.test_case "reset" `Quick test_reset;
      ]
      @ qsuite [ prop_translation_injective; prop_radix_matches_hashtbl ] );
  ]
