(* Benchmark program: times calls into each layer's public functions from
   outside the libraries, checks every op's output, and prints every
   end-to-end (--trace 0) or per-layer (--trace 1) metric by name with its
   unit; the last line of standard output is one JSON object.

     dune build ./perfbench/main.exe
     ./_build/default/perfbench/main.exe --workload suite-cacheres \
       --seed 0 --seconds 30 --trace 0

   Load shape: a closed loop with one client.  Ops run one after another
   on one domain; no engine call goes through the parallel engine.  A run
   repeats a pass (a fixed op sequence) until [--seconds] have elapsed,
   so every run measures the same op mix.  Host times are taken from
   each op's fastest repetition and scaled by the host's speed, which a
   probe measures in the same run (probe.ml).  Simulated metrics are deterministic for
   a seed and come from the first pass; later passes must reproduce its
   result documents byte for byte. *)

module Config = Sim.Config
module Engine = Sim.Engine
module Runner = Sim.Runner
module Stats = Sim.Stats
module Json = Obs.Json
module App = Workloads.App
module Scenario = Serve.Scenario
module Server = Serve.Server

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Host spans, kept in memory and written out when the run ends *)

type span = {
  id : int;
  parent : int;  (** enclosing span, -1 at top level *)
  name : string;
  op : int;  (** timed op index, -1 during set-up *)
  start : float;
  stop : float;
  words : float;  (** minor-heap words allocated inside the span *)
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_span = ref 0
let current_op = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        let w1 = Gc.minor_words () in
        open_spans := List.tl !open_spans;
        spans :=
          { id; parent; name; op = !current_op; start = t0; stop = t1; words = w1 -. w0 }
          :: !spans)
      f
  end

let dur s = s.stop -. s.start

(* a span's duration minus the part its child spans cover *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    spans

let write_spans path spans =
  let t = Obs.Trace.create ~capacity:(List.length spans + 1) () in
  let origin = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us x = int_of_float ((x -. origin) *. 1e6) in
  List.iter
    (fun s ->
      Obs.Trace.span t ~cat:"host" ~name:s.name ~pid:0 ~tid:0 ~ts:(us s.start)
        ~dur:(us s.stop - us s.start)
        ~args:
          [
            ("id", Json.Int s.id);
            ("parent", Json.Int s.parent);
            ("op", Json.Int s.op);
            ("minor_words", Json.Float s.words);
          ]
        ())
    (List.sort (fun a b -> compare a.start b.start) spans);
  Obs.Trace.write_file t path

(* ------------------------------------------------------------------ *)
(* Statistics helpers *)

let median = Replay.median

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

let div a b = if b = 0. then 0. else a /. b
let fsum f xs = List.fold_left (fun a x -> a +. f x) 0. xs

(* ------------------------------------------------------------------ *)
(* Calls into the layers *)

type ctx = {
  app : App.t;
  program : Lang.Ast.program;
  index_lookup : string -> int array -> int;
  profile : string -> (Affine.Vec.t * Affine.Vec.t) list;
}

let ctx_of name =
  let app = Workloads.Suite.by_name name in
  let program = App.program app in
  let analysis = Lang.Analysis.analyze program in
  {
    app;
    program;
    index_lookup = App.index_lookup app;
    profile = Workloads.Profile.for_transform app analysis;
  }

(* The traced run also calls analysis and the layout pass on their own,
   so that trace generation can be reported as prepare minus both. *)
let prepare cfg c ~optimized =
  let profile = if optimized then Some c.profile else None in
  if !tracing then begin
    let analysis = span "lang.analyze" (fun () -> Lang.Analysis.analyze c.program) in
    if optimized then
      ignore
        (span "core.transform" (fun () ->
             Core.Transform.run ?profile (Config.customize_config cfg) analysis))
  end;
  span "sim.prepare" (fun () ->
      Runner.prepare cfg ~optimized ~warmup_phases:c.app.App.warmup_nests
        ~index_lookup:c.index_lookup ?profile c.program)

let simulate cfg (p : Runner.prepared) =
  span "sim.engine" (fun () ->
      Engine.run cfg ~desired_mc_of_vpage:p.Runner.desired_mc ~jobs:[ p.Runner.job ] ())

let document ~app cfg r =
  span "obs.result_json" (fun () -> Json.to_string (Sweep.Exec.result_json ~app cfg r))

(* the identities every run's output must satisfy *)
let run_checks (r : Engine.result) =
  let s = r.Engine.stats in
  [
    ( "sum job_offchip = sim.offchip_accesses",
      Array.fold_left ( + ) 0 r.Engine.job_offchip = Stats.offchip_accesses s );
    ( "l1_hits + l2_hits + offchip <= total_accesses",
      Stats.l1_hits s + Stats.l2_hits s + Stats.offchip_accesses s
      <= Stats.total_accesses s );
  ]

(* ------------------------------------------------------------------ *)
(* Workloads *)

type outcome = {
  result : Engine.result;
  doc : string;  (** the op's result document *)
  checks : (string * bool) list;
  served : Server.t option;
}

type op = {
  key : string;  (** identifies the op within a pass *)
  pair : string option;
      (** plain/optimized pair this op belongs to: both must simulate the
          same number of accesses *)
  optimized : bool;
  run : unit -> outcome;
}

type prepared_workload = {
  pass : op list;
  canary : (string * (unit -> string)) list;
      (** op key -> the same job's document through [Runner.run] *)
  replay_source : unit -> Config.t * (int -> int option) * Engine.job;
      (** a prepared job of the workload, on its own machine *)
}

type workload = {
  name : string;
  setup : int -> prepared_workload;  (** from the seed *)
  sim_metrics : (op * outcome) list -> (string * float) list;
      (** exec_time_ratio, offchip_net_ratio, weighted_speedup and
          tenant_latency_p50_kcycles from the first pass *)
}

let line_cfg seed = { (Config.scaled ()) with Config.seed }

let single_job_op cfg c ~optimized ~prepared =
  let app = c.app.App.name in
  let tag = if optimized then "opt" else "plain" in
  {
    key = Printf.sprintf "%s/%s" app tag;
    pair = Some app;
    optimized;
    run =
      (fun () ->
        let p = match prepared with Some p -> p | None -> prepare cfg c ~optimized in
        let r = simulate cfg p in
        { result = r; doc = document ~app cfg r; checks = run_checks r; served = None });
  }

let runner_doc cfg c ~optimized () =
  let r =
    Runner.run cfg ~optimized ~warmup_phases:c.app.App.warmup_nests
      ~index_lookup:c.index_lookup
      ?profile:(if optimized then Some c.profile else None)
      c.program
  in
  Json.to_string (Sweep.Exec.result_json ~app:c.app.App.name cfg r)

(* simulated ratios of optimized over plain runs, per pair *)
let pair_metrics outcomes =
  let plain = Hashtbl.create 16 in
  List.iter (fun (op, o) -> if not op.optimized then Hashtbl.replace plain op.pair o) outcomes;
  let pairs =
    List.filter_map
      (fun (op, p) ->
        if op.optimized then Option.map (fun o -> (o, p)) (Hashtbl.find_opt plain op.pair)
        else None)
      outcomes
  in
  let ratio f = geomean (List.map (fun (o, p) -> f p /. f o) pairs) in
  let measured (o : outcome) = float_of_int o.result.Engine.measured_time in
  [
    ("exec_time_ratio", ratio measured);
    ("offchip_net_ratio", ratio (fun o -> Stats.avg_offchip_net o.result.Engine.stats));
    (* every job runs alone on the machine: its weighted speedup is 1 *)
    ("weighted_speedup", 1.0);
    ( "tenant_latency_p50_kcycles",
      median (List.map (fun (_, o) -> measured o /. 1000.) outcomes) );
  ]

(* Cache-resident apps, full prepare + engine per op on the Fig. 16
   machine (scaled, line-interleaved, private L2). *)
let suite_cacheres =
  let apps = [ "wupwise"; "gafort"; "minimd"; "art"; "hpccg" ] in
  {
    name = "suite-cacheres";
    setup =
      (fun seed ->
        let cfg = line_cfg seed in
        let ctxs = List.map ctx_of apps in
        let pass =
          List.concat_map
            (fun c ->
              List.map
                (fun optimized ->
                  single_job_op cfg c ~optimized ~prepared:None)
                [ false; true ])
            ctxs
        in
        (* warm-up: lazy set-up and the heap settle before timing *)
        ignore ((List.hd pass).run ());
        {
          pass;
          canary = [];
          replay_source =
            (fun () ->
              let p = prepare cfg (List.hd ctxs) ~optimized:false in
              (cfg, p.Runner.desired_mc, p.Runner.job));
        });
    sim_metrics = pair_metrics;
  }

(* Off-chip-bound apps prepared once in set-up; each op is one engine
   run of a prepared job on the Fig. 16 machine.  A pass of six engine
   runs is short enough for a run to repeat every op three times or
   more. *)
let replay_offchip =
  let apps = [ "fma3d"; "minighost"; "applu" ] in
  {
    name = "replay-offchip";
    setup =
      (fun seed ->
        let base = line_cfg seed in
        let jobs =
          List.concat_map
            (fun c ->
              List.map
                (fun optimized -> (c, optimized, prepare base c ~optimized))
                [ false; true ])
            (List.map ctx_of apps)
        in
        let pass =
          List.map
            (fun (c, optimized, p) ->
              single_job_op base c ~optimized ~prepared:(Some p))
            jobs
        in
        {
          pass;
          (* seed 0 reproduces the committed goldens; the canary runs
             there only, since it repeats every prepare *)
          canary =
            (if seed <> 0 then [] else
            List.map
              (fun (c, optimized, _) ->
                ( Printf.sprintf "%s/%s" c.app.App.name
                    (if optimized then "opt" else "plain"),
                  runner_doc base c ~optimized ))
              jobs);
          replay_source =
            (fun () ->
              let _, _, p = List.hd jobs in
              (base, p.Runner.desired_mc, p.Runner.job));
        });
    sim_metrics = pair_metrics;
  }

(* Open-system consolidation on the page-interleaved shared pool: the
   baseline (interleaved) and the paper's (mc-aware) placement policy,
   one scenario each.  Tenants are all minimd: the scenario
   seed also draws each tenant's app, and with a mixed lottery the work
   per scenario and every simulated outcome moved by 20-50% from one seed
   to the next, far wider than any bound the benchmark can hold.  Five
   tenants of 16 threads oversubscribe the 64 cores, so admission queues
   form, and keep a scenario near 3 s so that a run repeats each one. *)
let serve_consolidation =
  let scenario seed policy =
    {
      Scenario.name = "perfbench";
      platform = "";
      policy;
      mix = [ "minimd" ];
      tenants = 5;
      arrival_mean = 20000;
      duration = None;
      threads_per_tenant = 16;
      seed;
      optimized = true;
      frames_per_mc = None;
    }
  in
  let or_fail = function Ok v -> v | Error e -> failwith e in
  {
    name = "serve-consolidation";
    setup =
      (fun seed ->
        let pass =
          List.map
            (fun policy ->
              let sc = or_fail (Scenario.validate (scenario seed policy)) in
              {
                key = Scenario.policy_to_string policy;
                pair = None;
                optimized = policy = Scenario.Mc_aware;
                run =
                  (fun () ->
                    let t = or_fail (span "serve.run" (fun () -> Server.run sc)) in
                    let doc =
                      span "obs.result_json" (fun () -> Json.to_string (Server.result_json t))
                    in
                    let r = t.Server.engine in
                    let tenants =
                      List.fold_left (fun a (x : Server.tenant) -> a + x.Server.offchip) 0
                        t.Server.tenants
                    in
                    {
                      result = r;
                      doc;
                      checks =
                        ( "sum tenant offchip = sim.offchip_accesses",
                          tenants = Stats.offchip_accesses r.Engine.stats )
                        :: run_checks r;
                      served = Some t;
                    });
              })
            [ Scenario.Interleaved; Scenario.Mc_aware ]
        in
        (* warm-up: one tenant alone *)
        ignore (or_fail (Server.run { (scenario seed Scenario.Mc_aware) with Scenario.tenants = 1 }));
        {
          pass;
          canary = [];
          replay_source =
            (fun () ->
              let sc = scenario seed Scenario.Mc_aware in
              let cfg = or_fail (Scenario.config sc) in
              let c = ctx_of (List.hd sc.Scenario.mix) in
              let p =
                Runner.prepare cfg ~optimized:true ~threads:sc.Scenario.threads_per_tenant
                  ~warmup_phases:c.app.App.warmup_nests ~index_lookup:c.index_lookup
                  ~profile:c.profile c.program
              in
              (cfg, p.Runner.desired_mc, p.Runner.job));
        });
    sim_metrics =
      (fun outcomes ->
        let served key =
          let _, o = List.find (fun (op, _) -> op.key = key) outcomes in
          Option.get o.served
        in
        let base = served "interleaved" and mc = served "mc-aware" in
        let ratio f = f mc /. f base in
        [
          ( "exec_time_ratio",
            ratio (fun t -> float_of_int t.Server.engine.Engine.measured_time) );
          ( "offchip_net_ratio",
            ratio (fun t -> Stats.avg_offchip_net t.Server.engine.Engine.stats) );
          ("weighted_speedup", mc.Server.qos.Server.weighted_speedup);
          ( "tenant_latency_p50_kcycles",
            float_of_int mc.Server.qos.Server.p50_latency /. 1000. );
        ]);
  }

let workloads = [ suite_cacheres; replay_offchip; serve_consolidation ]

(* ------------------------------------------------------------------ *)
(* The timed loop *)

type sample = {
  op : op;
  outcome : outcome option;  (** [None]: the op raised *)
  failed : string list;  (** checks that did not hold *)
  wall : float;
  words : float;
  heap_words : int;  (** major heap size when the op returned *)
  probe : float;  (** host seconds of the probe run just before the op *)
  traced : bool;
  pass_no : int;
}

let run_op ~index ~traced ~pass_no ~first_docs ~plain_totals op =
  current_op := index;
  tracing := traced;
  let probe = Probe.time () in
  (* each op starts from a collected heap, as a fresh process would: no
     op pays for collecting the garbage of the op before it *)
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let outcome =
    match span "bench.op" op.run with
    | o -> Some o
    | exception e ->
      prerr_endline (Printf.sprintf "op %s raised %s" op.key (Printexc.to_string e));
      None
  in
  let wall = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let heap_words = (Gc.quick_stat ()).Gc.heap_words in
  tracing := false;
  let failed =
    match outcome with
    | None -> [ "raised" ]
    | Some o ->
      let total = Stats.total_accesses o.result.Engine.stats in
      let pair_ok =
        match op.pair with
        | None -> true
        | Some pair when not op.optimized ->
          Hashtbl.replace plain_totals pair total;
          true
        | Some pair -> (
          match Hashtbl.find_opt plain_totals pair with
          | Some t -> t = total
          | None -> true)
      in
      let repeat_ok =
        match Hashtbl.find_opt first_docs op.key with
        | Some d -> String.equal d o.doc
        | None ->
          Hashtbl.replace first_docs op.key o.doc;
          true
      in
      List.filter_map
        (fun (name, ok) -> if ok then None else Some name)
        (("plain and optimized total_accesses equal", pair_ok)
        :: ("result document repeats the first pass", repeat_ok)
        :: o.checks)
  in
  List.iter (fun c -> prerr_endline (Printf.sprintf "op %s failed: %s" op.key c)) failed;
  { op; outcome; failed; wall; words; heap_words; probe; traced; pass_no }

(* Passes until [seconds] have elapsed, checked before each op, so the
   last pass may stop part way.  The first pass always completes.  The
   traced run alternates untraced and traced passes and completes at
   least one of each, so the tracing overhead is measured under the same
   host conditions. *)
let timed_loop ~seconds ~trace pass =
  let first_docs = Hashtbl.create 64 and plain_totals = Hashtbl.create 16 in
  let t0 = now () in
  let samples = ref [] and index = ref 0 in
  let min_passes = if trace then 2 else 1 in
  let rec loop pass_no =
    let traced = trace && pass_no mod 2 = 1 in
    let rec ops = function
      | [] -> true
      | _ when pass_no >= min_passes && now () -. t0 >= seconds -> false
      | op :: rest ->
        samples :=
          run_op ~index:!index ~traced ~pass_no ~first_docs ~plain_totals op :: !samples;
        incr index;
        ops rest
    in
    if ops pass then loop (pass_no + 1)
  in
  loop 0;
  (List.rev !samples, first_docs)

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

let accesses s =
  match s.outcome with
  | Some o -> float_of_int (Stats.total_accesses o.result.Engine.stats)
  | None -> 0.

(* Each op's fastest repetition, as (wall, accesses), one per op key.
   The shared host slows whole stretches of a run, by up to 1.8x for
   several seconds at a time; an op's fastest repetition is the figure
   that repeats from run to run. *)
let best_reps samples =
  let best = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.outcome <> None then
        match Hashtbl.find_opt best s.op.key with
        | Some (w, _) when w <= s.wall -> ()
        | _ -> Hashtbl.replace best s.op.key (s.wall, accesses s))
    samples;
  Hashtbl.fold (fun _ b a -> b :: a) best []

(* simulated accesses of one pass over its ops' fastest host seconds *)
let accesses_per_s samples =
  let best = best_reps samples in
  div (fsum snd best) (fsum fst best)

(* paper Fig. 16 averages (percent reductions over the 13 apps), printed
   beside the simulated ratios for context only *)
let paper_fig16 = [ ("exec_time_ratio", 0.205); ("offchip_net_ratio", 0.664) ]

let probe_best samples = List.fold_left (fun a s -> Float.min a s.probe) infinity samples

(* Host seconds scaled to the probe's reference speed: multiply by
   [host_scale].  On a host slowed by its neighbours the run's fastest
   probe is slower than the reference and the scale is below 1. *)
let host_scale samples = Probe.reference_s /. probe_best samples

(* [setup_s] comes scaled by the probes taken around set-up *)
let end_to_end ~setup_s ~samples ~sim =
  let sim_m name unit_ = m name unit_ (List.assoc name sim) in
  let scale = host_scale samples in
  (* allocation and heap over the first pass, a fixed op mix: a run's
     last pass may be part of one.  The heap is sampled as each op returns;
     the largest sample is steadier than [top_heap_words], which moved by
     20% between seeds with the timing of major collections. *)
  let first = List.filter (fun s -> s.pass_no = 0) samples in
  [
    m "accesses_per_s" "1/s" (accesses_per_s samples /. scale);
    m "op_best_wall_s_geomean" "s" (geomean (List.map fst (best_reps samples)) *. scale);
    m "setup_s" "s" setup_s;
    m "alloc_words_per_access" "words/access"
      (div (fsum (fun s -> s.words) first) (fsum accesses first));
    m "peak_heap_mb" "MB"
      (float_of_int
         (List.fold_left (fun a s -> max a s.heap_words) 0 first * (Sys.word_size / 8))
      /. 1048576.);
    sim_m "exec_time_ratio" "ratio";
    sim_m "offchip_net_ratio" "ratio";
    sim_m "weighted_speedup" "ratio";
    sim_m "tenant_latency_p50_kcycles" "kcycles";
  ]

let stat_sum f outcomes =
  fsum (fun o -> float_of_int (f o.result.Engine.stats)) outcomes

(* Engine components: the call count each takes from an op's [Stats] and
   its replayed host ns per call.  Directory calls are counted as L2
   misses (accesses no L2 served); the event heap as messages plus DRAM
   requests. *)
let components (r : Replay.t) =
  let l1_misses s = Stats.total_accesses s - Stats.l1_hits s in
  let messages s = Stats.onchip_messages s + Stats.offchip_messages s in
  let dram s = Stats.offchip_accesses s + Stats.writebacks s in
  [
    ("l1", Stats.total_accesses, r.Replay.sacache_ns);
    ("translate", Stats.total_accesses, r.Replay.translate_ns);
    ("l2", l1_misses, r.Replay.sacache_ns);
    ("directory", (fun s -> l1_misses s - Stats.l2_hits s), r.Replay.directory_ns);
    ("noc", messages, r.Replay.transfer_ns);
    ("dram", dram, r.Replay.fr_fcfs_ns);
    ("event_heap", (fun s -> messages s + dram s), r.Replay.event_heap_ns);
  ]

let per_layer ~samples ~first_pass ~(replay : Replay.t) =
  let spans = self_times !spans in
  let calls name = List.filter (fun ((s : span), _) -> s.name = name) spans in
  let self_sum l = fsum snd l in
  let per_call name = div (self_sum (calls name)) (float_of_int (List.length (calls name))) in
  let words l = fsum (fun ((s : span), _) -> s.words) l in
  let in_ops l = List.filter (fun ((s : span), _) -> s.op >= 0) l in
  let op_accesses = Array.of_list (List.map accesses samples) in
  let accesses_of l = fsum (fun ((s : span), _) -> op_accesses.(s.op)) l in
  let engine = in_ops (calls "sim.engine") in
  let engine_s = self_sum engine in
  (* serve reaches the engine only inside Server.run: its shares are of
     that call's time, which also holds prepare and the solo runs *)
  let share_base = if engine = [] then self_sum (in_ops (calls "serve.run")) else engine_s in
  let prepare = calls "sim.prepare" in
  (* on replay-offchip every prepare is in set-up, one per op of a pass:
     its accesses are those its job simulates *)
  let prepare_words, prepare_accesses =
    match in_ops prepare with
    | [] ->
      let pass = List.map snd first_pass in
      ( words prepare,
        stat_sum Stats.total_accesses pass
        *. div (float_of_int (List.length prepare)) (float_of_int (List.length pass)) )
    | l -> (words l, accesses_of l)
  in
  let untraced, traced = List.partition (fun s -> not s.traced) samples in
  let traced_stats = List.filter_map (fun s -> if s.traced then s.outcome else None) traced in
  let shares =
    List.map
      (fun (name, count, ns) ->
        let n = stat_sum count traced_stats in
        (name, n, ns, div (n *. ns *. 1e-9) share_base))
      (components replay)
  in
  let outcomes = List.map snd first_pass in
  let st f = stat_sum f outcomes in
  let total = st Stats.total_accesses and l1 = st Stats.l1_hits in
  let off = st Stats.offchip_accesses in
  let served = List.filter_map (fun o -> o.served) outcomes in
  let metrics =
    [
      m "lang.analyze_s" "s" (per_call "lang.analyze");
      m "core.transform_s" "s" (per_call "core.transform");
      m "sim.prepare_s" "s" (per_call "sim.prepare");
      m "sim.trace_gen_s" "s"
        (div
           (self_sum prepare -. self_sum (calls "lang.analyze")
           -. self_sum (calls "core.transform"))
           (float_of_int (List.length prepare)));
      m "sim.prepare_words_per_access" "words/access" (div prepare_words prepare_accesses);
      m "sim.engine_s" "s" (per_call "sim.engine");
      m "sim.engine_ns_per_access" "ns/access" (div (engine_s *. 1e9) (accesses_of engine));
      m "sim.engine_words_per_access" "words/access" (div (words engine) (accesses_of engine));
      m "sim.engine_share" "share" (div engine_s (engine_s +. self_sum (in_ops prepare)));
      m "serve.run_s" "s" (per_call "serve.run");
      m "obs.result_json_s" "s" (per_call "obs.result_json");
      m "bench.op_self_s" "s" (per_call "bench.op");
      m "host.probe_best_ms" "ms" (probe_best samples *. 1e3);
      m "obs.trace_overhead_share" "share"
        (1. -. div (accesses_per_s traced) (accesses_per_s untraced));
      m "cache.sacache_access_ns" "ns/call" replay.Replay.sacache_ns;
      m "cache.directory_ns" "ns/call" replay.Replay.directory_ns;
      m "noc.transfer_ns" "ns/call" replay.Replay.transfer_ns;
      m "dram.fr_fcfs_ns" "ns/call" replay.Replay.fr_fcfs_ns;
      m "os.translate_ns" "ns/call" replay.Replay.translate_ns;
      m "sim.event_heap_ns" "ns/call" replay.Replay.event_heap_ns;
    ]
    @ List.map (fun (name, _, _, share) -> m ("est." ^ name ^ "_share") "share" share) shares
    @ [
        m "cache.l1_hit_rate" "share" (div l1 total);
        m "cache.l2_hit_rate" "share" (div (st Stats.l2_hits) (total -. l1));
        m "sim.offchip_per_kaccess" "count" (div (1000. *. off) total);
        m "noc.offchip_net_cycles_avg" "cycles"
          (div (st Stats.offchip_net_cycles) (st Stats.offchip_messages));
        m "noc.onchip_net_cycles_avg" "cycles"
          (div (st Stats.onchip_net_cycles) (st Stats.onchip_messages));
        m "noc.max_link_utilization" "share"
          (List.fold_left
             (fun a o -> Array.fold_left Float.max a o.result.Engine.link_utilization)
             0. outcomes);
        m "dram.queue_cycles_avg" "cycles" (div (st Stats.memory_queue_cycles) off);
        m "dram.row_hit_rate" "share" (div (st Stats.row_hits) off);
        m "os.page_fallbacks" "count" (st Stats.page_fallbacks);
        m "os.pages_allocated" "count"
          (fsum (fun o -> float_of_int o.result.Engine.pages_allocated) outcomes);
        m "serve.queue_wait_avg_kcycles" "kcycles"
          (div (fsum (fun t -> t.Server.qos.Server.avg_queue_wait) served)
             (1000. *. float_of_int (List.length served)));
      ]
  in
  (metrics, shares, share_base)

let print_shares shares base =
  Printf.printf
    "estimated share of the engine's host time (%.3f s over the traced ops)\n" base;
  Printf.printf "  %-12s %14s %10s %10s %8s\n" "component" "calls" "ns/call" "est. s" "share";
  List.iter
    (fun (name, n, ns, share) ->
      Printf.printf "  %-12s %14.0f %10.1f %10.3f %8.3f\n" name n ns (n *. ns *. 1e-9) share)
    shares

(* ------------------------------------------------------------------ *)
(* Main *)

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
   workloads: suite-cacheres, replay-offchip, serve-consolidation"

let setup_reps = 3

let print_metric x = Printf.printf "%-32s %16.6g  %s\n" x.mname x.value x.unit_

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 0; 7 is held out for claims)");
      ("--seconds", Arg.Set_float seconds, "S how long the timed loop runs");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let trace = !trace = 1 in
  tracing := trace;
  (* set-up is repeated and its median reported, so that work moved into
     set-up shows; each repetition's state is dropped before the next.
     Probes before and after the repetitions give the host's speed during
     set-up, which may differ from its speed in the timed loop. *)
  let setup_probes = ref [] in
  let probe_twice () =
    for _ = 1 to 2 do
      Gc.full_major ();
      setup_probes := Probe.time () :: !setup_probes
    done
  in
  let setup () =
    probe_twice ();
    Gc.full_major ();
    let t0 = now () in
    let p = span "bench.setup" (fun () -> w.setup !seed) in
    (now () -. t0, p)
  in
  let rec setups times n =
    let t, p = setup () in
    if n = 1 then (t :: times, p) else setups (t :: times) (n - 1)
  in
  let setup_times, prepared = setups [] setup_reps in
  probe_twice ();
  let setup_probe = List.fold_left Float.min infinity !setup_probes in
  let samples, first_docs = timed_loop ~seconds:!seconds ~trace prepared.pass in
  let attempted = List.length samples in
  let failed = List.length (List.filter (fun s -> s.failed <> []) samples) in
  let first_pass =
    List.filter_map
      (fun s -> if s.pass_no = 0 then Option.map (fun o -> (s.op, o)) s.outcome else None)
      samples
  in
  let canary =
    List.map
      (fun (key, doc) -> (key, Hashtbl.find_opt first_docs key = Some (doc ())))
      prepared.canary
  in
  let correct = failed = 0 && List.for_all snd canary in
  let passes = 1 + List.fold_left (fun a s -> max a s.pass_no) 0 samples in
  Printf.printf "workload %s  seed %d  trace %d  ops %d (%d passes of %d)  failed %d\n"
    w.name !seed (Bool.to_int trace) attempted passes (List.length prepared.pass) failed;
  for p = 0 to passes - 1 do
    let ss = List.filter (fun s -> s.pass_no = p) samples in
    Printf.printf "  pass %d%s%s  %.3f s\n" p
      (if List.exists (fun s -> s.traced) ss then " (traced)" else "")
      (if List.length ss < List.length prepared.pass then " (part)" else "")
      (fsum (fun s -> s.wall) ss)
  done;
  (* the host-time spread inside the run, which the fastest repetitions
     leave out *)
  let untraced = List.filter (fun s -> not s.traced) samples in
  Printf.printf "  %-28s %5s %9s %9s %9s\n" "op (untraced)" "reps" "best s" "p50 s" "max s";
  List.iter
    (fun op ->
      let walls = List.filter_map (fun s -> if s.op.key = op.key then Some s.wall else None) untraced in
      if walls <> [] then
        Printf.printf "  %-28s %5d %9.3f %9.3f %9.3f\n" op.key (List.length walls)
          (List.fold_left Float.min infinity walls) (median walls)
          (List.fold_left Float.max 0. walls))
    prepared.pass;
  Printf.printf
    "  host probe (reference %.2f ms): fastest %.2f ms of %d in the timed loop, scale %.3f;\n\
    \    fastest %.2f ms of %d around set-up, scale %.3f\n\
    \  unscaled: accesses_per_s %.6g, op_best_wall_s_geomean %.6g s, setup_s %.6g s\n"
    (Probe.reference_s *. 1e3) (probe_best samples *. 1e3) attempted (host_scale samples)
    (setup_probe *. 1e3) (List.length !setup_probes) (Probe.reference_s /. setup_probe)
    (accesses_per_s samples) (geomean (List.map fst (best_reps samples))) (median setup_times);
  List.iter
    (fun (key, ok) ->
      Printf.printf "  canary %s vs Sim.Runner.run: %s\n" key
        (if ok then "byte-equal" else "MISMATCH"))
    canary;
  let metrics =
    if not correct then []
    else begin
      let sim = w.sim_metrics first_pass in
      List.iter
        (fun (name, reduction) ->
          Printf.printf "  %s %.4f; paper Fig 16 average %.3f (context only, model unvalidated)\n"
            name (List.assoc name sim) (1. -. reduction))
        paper_fig16;
      if not trace then
        end_to_end
          ~setup_s:(median setup_times *. Probe.reference_s /. setup_probe)
          ~samples ~sim
      else begin
        let cfg, desired, job = prepared.replay_source () in
        let replay = Replay.measure cfg ~desired job ~limit:200_000 in
        let metrics, shares, base = per_layer ~samples ~first_pass ~replay in
        print_shares shares base;
        metrics
      end
    end
  in
  Printf.printf "%-32s %16s  %s\n" "metric" "value" "unit";
  List.iter print_metric metrics;
  print_metric (m "error_rate" "share" (div (float_of_int failed) (float_of_int attempted)));
  (* every op's document repeats the first pass's, so this covers them all *)
  Printf.printf "simulation digest %s seed %d: %s\n" w.name !seed
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun (_, o) -> o.doc) first_pass))));
  if trace then begin
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/spans-%s-seed%d.json" w.name !seed in
    write_spans path !spans;
    Printf.printf "spans written to %s\n" path
  end;
  print_endline
    (Json.to_string ~minify:true
       (Json.obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.obj
                (List.map
                   (fun x ->
                     ( x.mname,
                       Json.obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ] ))
                   metrics) );
          ]))
