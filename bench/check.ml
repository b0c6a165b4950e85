(* The performance-regression gate behind `bench --check`.

   Measures a small, fixed set of entries — a seed-0 smoke simulation
   (engine wall time and minor words per access) plus the Bechamel
   microbenchmarks of the simulator's hot primitives — and compares each
   against the committed bench/baseline.json.  An entry regresses when

     measured > baseline.value * baseline.tolerance

   Tolerances are per entry: wall-clock entries get generous headroom
   because CI machines differ, allocation counts are deterministic and
   get a tight bound.  The caller exits 2 on any regression — the knob
   scripts/dev-check and the CI perf job both pull.

   `--update` rewrites the baseline with the measured values (see
   EXPERIMENTS.md for when bumping the baseline is legitimate). *)

module Config = Sim.Config
module Engine = Sim.Engine
module Stats = Sim.Stats
module Heap = Sim.Event_heap
module Json = Obs.Json

type entry = {
  name : string;
  value : float;
  tolerance : float;
  min_floor : bool;
      (* true: [value] is a required floor (measured >= value passes) —
         used by the parallel-speedup entries, where bigger is better.
         false (default): [measured <= value * tolerance] passes. *)
}

let min_floor_of name = String.length name >= 4 && String.sub name 0 4 = "par."

(* --- measurements --- *)

(* Deterministic seed-0 smoke run: the apsi model on the scaled platform.
   The gate watches the engine and the allocation of preparing the job
   (analysis, layouts and trace generation), both per simulated access. *)
let smoke_entries () =
  let cfg = Config.scaled () in
  let app = Workloads.Suite.by_name "apsi" in
  let program = Workloads.App.program app in
  let index_lookup = Workloads.App.index_lookup app in
  let prepare () =
    Sim.Runner.prepare cfg ~optimized:false
      ~warmup_phases:app.Workloads.App.warmup_nests ~index_lookup program
  in
  ignore (prepare ());
  (* warm *)
  let prepare_minor0 = Gc.minor_words () in
  let prepared = prepare () in
  let prepare_minor = Gc.minor_words () -. prepare_minor0 in
  let jobs = [ prepared.Sim.Runner.job ] in
  let run () = Engine.run cfg ~jobs () in
  ignore (run ());
  (* warm *)
  let minor0 = Gc.minor_words () in
  let r = run () in
  let minor = Gc.minor_words () -. minor0 in
  let accesses = float_of_int (Stats.total_accesses r.Engine.stats) in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    ignore (run ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  [
    ("smoke.engine_wall_s", !best);
    ("smoke.minor_words_per_access", minor /. accesses);
    ("smoke.prepare_minor_words_per_access", prepare_minor /. accesses);
  ]

(* Bechamel micro section: ns/run estimates of the event-loop primitives.
   The churn benchmarks are the event-loop microbenchmarks of the
   regression gate: push/pop 4096 timestamped events through the queue.
   [churn4k] pushes times 0..1008, all inside the timing wheel's window;
   [churn_far] pushes times 5000..69512, all past it, so it gates the
   overflow heap. *)
let heap_churn ?(far = false) () =
  let h : Heap.t = Heap.create () in
  for i = 0 to 4095 do
    let t = i * 37 mod 1009 in
    Heap.push h ~time:(if far then 5000 + (64 * t) else t) i
  done;
  let acc = ref 0 in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (t, v) ->
      acc := !acc + t + v;
      drain ()
  in
  drain ();
  !acc

let micro_entries () =
  let open Bechamel in
  let topo = Noc.Topology.make ~width:8 ~height:8 () in
  let net = Noc.Network.create topo in
  let tests =
    [
      ( "micro.event_heap.churn4k_ns",
        Test.make ~name:"churn" (Staged.stage (fun () -> ignore (heap_churn ())))
      );
      ( "micro.event_heap.churn_far_ns",
        Test.make ~name:"churn_far"
          (Staged.stage (fun () -> ignore (heap_churn ~far:true ()))) );
      ( "micro.network.send_corner_ns",
        Test.make ~name:"send"
          (Staged.stage (fun () ->
               ignore (Noc.Network.send net ~now:0 ~src:0 ~dst:63 ~bytes:264)))
      );
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.map
    (fun (entry_name, test) ->
      let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let results = Analyze.all ols instance raw in
      let est =
        Hashtbl.fold
          (fun _ result acc ->
            match Analyze.OLS.estimates result with
            | Some (e :: _) -> e
            | _ -> acc)
          results nan
      in
      (entry_name, est))
    tests

(* Parallel smoke: 4 cluster-confined apsi replicas on the page-interleaved
   first-touch platform — the canonical decomposable workload the parallel
   engine speeds up.  Two things are checked:

   - byte-equality of the 4-domain and sequential result documents, on
     EVERY host — the fallback backend still runs the partitioned merge
     path (serialized), so the oracle is meaningful even on OCaml 4;
   - the 4-domain wall-clock speedup against the committed floor, only
     where it can be measured (an OCaml 5 build on a >= 4-core host);
     elsewhere the entry is reported as skipped with the reason. *)
let par_speedup_name = "par.smoke_speedup_x4"

let par_entries () =
  let cfg =
    match
      Config.build ~scaled:true ~platform:"" ~l2:"private" ~interleave:"page"
        ~policy:"first-touch" ~mapping:"" ~width:8 ~height:8 ~tpc:1
        ~optimal:false ~seed:0 ()
    with
    | Ok c -> c
    | Error e -> failwith ("par smoke config: " ^ e)
  in
  let app = Workloads.Suite.by_name "apsi" in
  let jobs =
    Sim.Runner.prepare_replicas cfg ~optimized:false
      ~warmup_phases:app.Workloads.App.warmup_nests
      ~index_lookup:(Workloads.App.index_lookup app)
      (Workloads.App.program app)
  in
  let plan = ref "" in
  let run ~domains () =
    Sim.Runner.run_many ~domains ~on_plan:(fun s -> plan := s) cfg ~jobs
  in
  let doc r = Json.to_string (Sweep.Exec.result_json ~app:"apsi" cfg r) in
  let seq = run ~domains:1 () in
  let par = run ~domains:4 () in
  if String.length !plan < 9 || String.sub !plan 0 9 <> "parallel:" then
    failwith ("par smoke did not plan parallel: " ^ !plan);
  if doc seq <> doc par then
    failwith "par smoke: 4-domain result differs from the sequential oracle";
  if not Sim.Par_backend.available then
    ([], [ (par_speedup_name, "no domain support in this build") ])
  else
    let cores = Sim.Par_backend.cpu_count () in
    if cores < 4 then
      ( [],
        [
          ( par_speedup_name,
            Printf.sprintf "host has %d core%s (need 4)" cores
              (if cores = 1 then "" else "s") );
        ] )
    else begin
      let best f =
        let best = ref infinity in
        for _ = 1 to 3 do
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt
        done;
        !best
      in
      let seq_s = best (run ~domains:1) in
      let par_s = best (run ~domains:4) in
      ([ (par_speedup_name, seq_s /. par_s) ], [])
    end

(* Chiplet smoke: the chiplet2x2-mc4 tiled-GEMM run (EXPERIMENTS.md's
   committed experiment) has no committed timing baseline yet, so the
   gate carries its entries as explicit skip rows — --check output shows
   the hierarchical platform exists and why it is ungated instead of
   silently omitting it.  To arm the gate: measure the entries here,
   record values with --update, and drop the skip. *)
let chiplet_skip_reason =
  "no committed chiplet2x2-mc4 baseline yet (see EXPERIMENTS.md)"

let chiplet_entries () =
  ( [],
    [
      ("chiplet.gemm_wall_s", chiplet_skip_reason);
      ("chiplet.gemm_cross_share", chiplet_skip_reason);
    ] )

let measure () =
  let par, par_skipped = par_entries () in
  let chip, chip_skipped = chiplet_entries () in
  ( smoke_entries () @ micro_entries () @ par @ chip,
    par_skipped @ chip_skipped )

(* --- baseline I/O --- *)

let default_tolerance name =
  if String.length name >= 6 && String.sub name 0 6 = "micro." then 1.75
  else if name = "smoke.engine_wall_s" then 1.6
  else if name = "smoke.minor_words_per_access" then 1.15
  else if name = "smoke.prepare_minor_words_per_access" then 1.15
  else if min_floor_of name then 1.0
  else 1.5

(* The committed speedup floor: never overwritten by --update (it is a
   policy threshold, not a measurement). *)
let default_floor _name = 1.5

let entry_json e =
  Json.obj
    ([
       ("name", Json.String e.name);
       ("value", Json.Float e.value);
       ("tolerance", Json.Float e.tolerance);
     ]
    @ if e.min_floor then [ ("min", Json.Bool true) ] else [])

let baseline_json entries = Json.obj [ ("entries", Json.list entry_json entries) ]

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let parse_baseline path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok doc -> (
    match Json.member "entries" doc with
    | Some (Json.List es) -> (
      try
        Ok
          (List.map
             (fun e ->
               match
                 ( Json.member "name" e,
                   number (Json.member "value" e),
                   number (Json.member "tolerance" e) )
               with
               | Some (Json.String name), Some value, Some tolerance ->
                 let min_floor =
                   match Json.member "min" e with
                   | Some (Json.Bool b) -> b
                   | _ -> false
                 in
                 { name; value; tolerance; min_floor }
               | _ -> failwith "entry")
             es)
      with Failure _ -> Error (path ^ ": malformed entry"))
    | _ -> Error (path ^ ": missing \"entries\""))

let write_json path doc =
  let oc = open_out path in
  Json.to_channel oc doc;
  close_out oc

(* --- the gate --- *)

(* Returns the process exit code: 0 ok, 2 regression, 1 bad baseline. *)
let run ~baseline_path ~update ~report_out () =
  let measured, skipped = measure () in
  if update then begin
    (* min-floor ("par." prefixed) entries keep their committed policy value — and
       stay in the baseline even when this host could not measure them —
       so updating on a 1-core laptop never weakens the CI speedup gate *)
    let old =
      match parse_baseline baseline_path with Ok es -> es | Error _ -> []
    in
    let committed name =
      match List.find_opt (fun e -> e.name = name) old with
      | Some e -> e.value
      | None -> default_floor name
    in
    let entry_of name value =
      let min_floor = min_floor_of name in
      let value =
        if min_floor then committed name
        else if Float.is_nan value then
          (* skipped on this host: keep the committed value (0 when the
             entry is new) — Float nan would encode as JSON null and
             break the next parse *)
          match List.find_opt (fun e -> e.name = name) old with
          | Some e -> e.value
          | None -> 0.
        else value
      in
      { name; value; tolerance = default_tolerance name; min_floor }
    in
    let entries =
      List.map (fun (name, value) -> entry_of name value) measured
      @ List.map (fun (name, _reason) -> entry_of name nan) skipped
    in
    write_json baseline_path (baseline_json entries);
    Printf.printf "baseline updated: %s\n" baseline_path;
    List.iter (fun e -> Printf.printf "  %-32s %14.2f\n" e.name e.value) entries;
    0
  end
  else
    match parse_baseline baseline_path with
    | Error e ->
      Printf.eprintf "bench --check: %s\n" e;
      1
    | Ok entries ->
      Printf.printf "== bench --check (baseline %s) ==\n" baseline_path;
      Printf.printf "  %-32s %14s %14s %7s %6s\n" "entry" "baseline"
        "measured" "ratio" "";
      let rows =
        List.map
          (fun e ->
            match List.assoc_opt e.name measured with
            | None ->
              (* an unmeasured entry passes only when the measurement
                 explicitly skipped it (host cannot run it) *)
              (e, nan, List.mem_assoc e.name skipped)
            | Some m ->
              let ok =
                if e.min_floor then m >= e.value
                else m /. e.value <= e.tolerance
              in
              (e, m, ok))
          entries
      in
      List.iter
        (fun (e, m, ok) ->
          match List.assoc_opt e.name skipped with
          | Some reason ->
            Printf.printf "  %-32s %14.2f %14s %7s skipped: %s\n" e.name
              e.value "-" "-" reason
          | None ->
            Printf.printf "  %-32s %14.2f %14.2f %6.2fx %6s\n" e.name e.value
              m (m /. e.value)
              (if ok then if e.min_floor then "ok (floor)" else "ok"
               else "REGRESSED"))
        rows;
      (match report_out with
      | None -> ()
      | Some path ->
        let doc =
          Json.obj
            [
              ("baseline", Json.String baseline_path);
              ( "entries",
                Json.list
                  (fun (e, m, ok) ->
                    Json.obj
                      ([ ("name", Json.String e.name);
                         ("baseline", Json.Float e.value) ]
                      @ (match List.assoc_opt e.name skipped with
                        | Some reason ->
                          [ ("skipped", Json.String reason) ]
                        | None ->
                          [
                            ("measured", Json.Float m);
                            ("ratio", Json.Float (m /. e.value));
                          ])
                      @ [
                          ("tolerance", Json.Float e.tolerance);
                          ("min", Json.Bool e.min_floor);
                          ("ok", Json.Bool ok);
                        ]))
                  rows );
            ]
        in
        write_json path doc;
        Printf.printf "  report written to %s\n" path);
      if List.for_all (fun (_, _, ok) -> ok) rows then begin
        Printf.printf "bench --check: all entries within tolerance\n";
        0
      end
      else begin
        Printf.printf "bench --check: performance regression detected\n";
        2
      end
