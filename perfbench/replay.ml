(* Component replays: host nanoseconds per call of each engine component's
   public function, timed on a call stream derived from a workload's own
   prepared trace and machine.

   The streams are built once, untimed, by walking the trace through the
   same component chain the engine uses (translate -> L1 -> private L2 ->
   directory -> NoC -> controller).  Each component is then timed alone
   on a fresh instance, several times, and the median repetition is
   reported.  The replay has no timing feedback between components, so it
   measures the cost of a call, not the engine's schedule. *)

module Config = Sim.Config
module Engine = Sim.Engine

type t = {
  translate_ns : float;
  sacache_ns : float;
  directory_ns : float;
  transfer_ns : float;
  fr_fcfs_ns : float;
  event_heap_ns : float;
}

let reps = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [calls] calls made by [run] on the state [fresh ()] builds; creation is
   outside the timed interval *)
let time_per_call ~calls fresh run =
  median
    (List.init reps (fun _ ->
         let st = fresh () in
         let t0 = Unix.gettimeofday () in
         run st;
         let t1 = Unix.gettimeofday () in
         (t1 -. t0) *. 1e9 /. float_of_int (max 1 calls)))

(* Up to [limit] accesses of the job, threads interleaved round-robin
   within each phase (the order a lockstep machine would issue them). *)
let sample (job : Engine.job) ~limit =
  let nodes = ref [] and accs = ref [] and n = ref 0 in
  List.iter
    (fun (phase : Lang.Interp.phase) ->
      let longest = Array.fold_left (fun m s -> max m (Array.length s)) 0 phase in
      for i = 0 to longest - 1 do
        Array.iteri
          (fun t stream ->
            if i < Array.length stream && !n < limit then begin
              nodes := job.Engine.node_of_thread.(t) :: !nodes;
              accs := stream.(i) :: !accs;
              incr n
            end)
          phase
      done)
    job.Engine.phases;
  (Array.of_list (List.rev !nodes), Array.of_list (List.rev !accs))

let page_policy (cfg : Config.t) desired =
  let cl = Config.cluster cfg and topo = Config.topo cfg in
  let first_touch node =
    List.hd
      (Core.Cluster.mcs_of_cluster cl (Core.Cluster.cluster_of_node cl topo node))
  in
  match cfg.Config.page_policy with
  | Config.Hardware -> Os_sim.Page_alloc.Hardware_interleaved
  | Config.First_touch -> Os_sim.Page_alloc.First_touch first_touch
  | Config.Mc_aware -> Os_sim.Page_alloc.Mc_aware { desired; fallback = first_touch }

let l1s (cfg : Config.t) nodes =
  Array.init nodes (fun _ ->
      Cache_sim.Sacache.create ~hash_sets:true ~size_bytes:cfg.Config.l1_size
        ~line_bytes:cfg.Config.l1_line ~ways:cfg.Config.l1_ways ())

let l2s (cfg : Config.t) nodes =
  Array.init nodes (fun _ ->
      Cache_sim.Sacache.create ~hash_sets:true ~size_bytes:cfg.Config.l2_size
        ~line_bytes:(Config.l2_line cfg) ~ways:cfg.Config.l2_ways ())

(* one directory step of an L2 miss: drop the evicted line's holder (or
   -1), then look the missing line up and register the requester *)
type dir_op = { node : int; line : int; evicted : int }

let measure (cfg : Config.t) ~desired (job : Engine.job) ~limit =
  let topo = Config.topo cfg in
  let nodes = Noc.Topology.nodes topo in
  let amap = Config.address_map cfg in
  let node_of, accs = sample job ~limit in
  let n = Array.length accs in
  let vaddr i = Lang.Interp.addr_of_access accs.(i) in
  let write i = Lang.Interp.is_write accs.(i) in
  let new_pa () =
    Os_sim.Page_alloc.create ~map:amap ~policy:(page_policy cfg desired)
      ~frames_per_mc:cfg.Config.frames_per_mc ()
  in
  let paddr =
    let pa = new_pa () in
    Array.init n (fun i ->
        Os_sim.Page_alloc.translate pa ~node:node_of.(i) ~vaddr:(vaddr i))
  in
  let translate_ns =
    time_per_call ~calls:n new_pa (fun pa ->
        for i = 0 to n - 1 do
          ignore (Os_sim.Page_alloc.translate pa ~node:node_of.(i) ~vaddr:(vaddr i))
        done)
  in
  (* untimed walk: L1 misses, then the private-L2 misses behind them *)
  let dir_ops =
    let l1 = l1s cfg nodes and l2 = l2s cfg nodes in
    let ops = ref [] in
    for i = 0 to n - 1 do
      let node = node_of.(i) and addr = paddr.(i) in
      match Cache_sim.Sacache.access l1.(node) ~addr ~write:(write i) with
      | Cache_sim.Sacache.Hit -> ()
      | Cache_sim.Sacache.Miss _ -> (
        match Cache_sim.Sacache.access l2.(node) ~addr ~write:(write i) with
        | Cache_sim.Sacache.Hit -> ()
        | Cache_sim.Sacache.Miss { evicted; _ } ->
          let line = Cache_sim.Sacache.line_addr l2.(node) addr in
          let evicted = Option.value evicted ~default:(-1) in
          ops := { node; line; evicted } :: !ops)
    done;
    Array.of_list (List.rev !ops)
  in
  let sacache_ns =
    time_per_call ~calls:n
      (fun () -> l1s cfg nodes)
      (fun l1 ->
        for i = 0 to n - 1 do
          ignore (Cache_sim.Sacache.access l1.(node_of.(i)) ~addr:paddr.(i) ~write:(write i))
        done)
  in
  let m = Array.length dir_ops in
  let directory_ns =
    time_per_call ~calls:m
      (fun () -> Cache_sim.Directory.create ~nodes)
      (fun dir ->
        Array.iter
          (fun op ->
            if op.evicted >= 0 then
              Cache_sim.Directory.remove_holder dir ~line:op.evicted ~node:op.node;
            ignore
              (Cache_sim.Directory.closest_holder dir ~line:op.line ~excluding:op.node
                 ~distance:(Noc.Topology.distance topo op.node) ());
            Cache_sim.Directory.add_holder dir ~line:op.line ~node:op.node)
          dir_ops)
  in
  let mc_of op = Dram.Address_map.mc_of_paddr amap op.line in
  let mc_node =
    let pl = Config.placement cfg in
    fun op -> Noc.Placement.mc_node pl (mc_of op)
  in
  (* request leg to the line's controller and data reply back, one miss
     issued per cycle *)
  let data_bytes = Config.l2_line cfg + 8 in
  let transfer_ns =
    time_per_call ~calls:(2 * m)
      (fun () -> Noc.Network.create ~config:cfg.Config.noc topo)
      (fun net ->
        Array.iteri
          (fun k op ->
            let dst = mc_node op in
            let arr = Noc.Network.transfer net ~now:k ~src:op.node ~dst ~bytes:8 in
            ignore
              (Noc.Network.transfer net ~now:(arr + 40) ~src:dst ~dst:op.node
                 ~bytes:data_bytes))
          dir_ops)
  in
  (* each miss enqueued at its controller 20 cycles after the previous
     one; the controller is advanced to the arrival time, as the engine
     does when a request arrives *)
  let fr_fcfs_ns =
    time_per_call ~calls:m
      (fun () ->
        Array.init (Config.num_mcs cfg) (fun _ ->
            Dram.Fr_fcfs.create ~timing:cfg.Config.timing
              ~channels:(Config.channels_per_mc cfg)
              ~scheduler:cfg.Config.mc_scheduler
              ~row_policy:cfg.Config.mc_row_policy ~banks:(Config.banks_per_mc cfg) ()))
      (fun mcs ->
        Array.iteri
          (fun k op ->
            let now = 20 * k and c = mcs.(mc_of op) in
            Dram.Fr_fcfs.enqueue c ~now
              ~bank:(Dram.Address_map.bank_of_paddr amap op.line)
              ~row:(Dram.Address_map.row_of_paddr amap op.line) ~id:k ();
            ignore (Dram.Fr_fcfs.advance c ~now))
          dir_ops)
  in
  (* one pending event per thread, as in the engine's steady state: each
     pop schedules the popped thread's next access a few cycles on *)
  let threads = Array.length job.Engine.node_of_thread in
  let event_heap_ns =
    time_per_call ~calls:n
      (fun () ->
        let h = Sim.Event_heap.create () in
        for t = 0 to threads - 1 do
          Sim.Event_heap.push h ~time:t t
        done;
        h)
      (fun h ->
        for i = 0 to n - 1 do
          let time = Sim.Event_heap.next_time h in
          let t = Sim.Event_heap.pop_payload h in
          Sim.Event_heap.push h ~time:(time + 1 + (paddr.(i) lsr 6 land 15)) t
        done)
  in
  { translate_ns; sacache_ns; directory_ns; transfer_ns; fr_fcfs_ns; event_heap_ns }
