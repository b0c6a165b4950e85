type access = int

let addr_of_access a = a lsr 1

let is_write a = a land 1 = 1

type phase = access array array

(* Growable per-thread access stream under construction.  It lives
   outside the OCaml heap, so the collector never scans it, and one buffer
   per thread serves every phase of a run: each phase's stream is copied
   out at its exact length. *)
module Ba = Bigarray.Array1

type buf = {
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) Ba.t;
  mutable len : int;
}

let buf_make () = { data = Ba.create Bigarray.int Bigarray.c_layout 4096; len = 0 }

let buf_push b x =
  if b.len = Ba.dim b.data then begin
    let d = Ba.create Bigarray.int Bigarray.c_layout (2 * b.len) in
    Ba.blit b.data (Ba.sub d 0 b.len);
    b.data <- d
  end;
  Ba.unsafe_set b.data b.len x;
  b.len <- b.len + 1

(* the stream so far, leaving the buffer empty for the next phase *)
let buf_take b =
  let a = Array.make b.len 0 in
  for i = 0 to b.len - 1 do
    Array.unsafe_set a i (Ba.unsafe_get b.data i)
  done;
  b.len <- 0;
  a

(* Contiguous chunk [index] of [0..n-1] split into [chunks] (OpenMP static):
   returns (start, stop) inclusive; empty iff start > stop. *)
let chunk_bounds n chunks index =
  let base = n / chunks and rem = n mod chunks in
  let start = (index * base) + min index rem in
  let len = base + if index < rem then 1 else 0 in
  (start, start + len - 1)

(* --- static environment ---

   The variable environment is a partial map from names to ints: a
   parameter binds its name before the first nest, a loop binds its index
   for each iteration and unbinds it when the loop ends — even when the
   index shadowed a parameter or an enclosing loop's index, and for every
   later nest too.  At each program point the compiler knows, per name,
   whether it is bound to a parameter's constant, bound to its slot by an
   enclosing loop, unbound, or one of these depending on the path taken
   (after an [if] whose branch unbinds it, or from the second iteration of
   a loop whose body unbinds it).  Only that last case checks a flag at
   run time. *)

module Env = Map.Make (String)

type binding = Param of int | Index | Unbound | Dynamic

let binding env x = Option.value (Env.find_opt x env) ~default:Unbound

let join a b =
  Env.merge
    (fun _ x y ->
      let x = Option.value x ~default:Unbound
      and y = Option.value y ~default:Unbound in
      Some (if x = y then x else Dynamic))
    a b

let rec flow_body env body = List.fold_left flow_stmt env body

and flow_stmt env = function
  | Ast.Assign _ -> env
  | Ast.If c -> join (flow_body env c.Ast.then_) (flow_body env c.Ast.else_)
  | Ast.Loop l ->
    (* zero iterations leave [env]; the index is unbound either way *)
    Env.add l.Ast.index Unbound
      (join env (flow_body (loop_entry env l) l.Ast.body))

(* The environment every iteration's body starts in: the loop's entry
   environment joined with the end of any earlier iteration. *)
and loop_entry env (l : Ast.loop) =
  let rec fix e =
    let e' = join e (Env.add l.Ast.index Index (flow_body e l.Ast.body)) in
    if Env.equal ( = ) e e' then e else fix e'
  in
  fix (Env.add l.Ast.index Index env)

(* --- compiled expressions ---

   Constants and affine reads of one loop index, [c + k·i], stay symbolic
   so that their parent can fold them or read the slot inline; everything
   else is a closure.  Neither symbolic form can raise or emit, so a
   parent may evaluate it in any order. *)

type cexpr =
  | Const of int
  | Lin of int * int * int  (** [Lin (c, k, s)] is [c + k·vals.(s)] *)
  | Fn of (unit -> int)

let unbound x () =
  raise
    (Diag.Fatal (Diag.error ~code:"I001" Span.dummy ("unbound variable " ^ x)))

let trace_gen ~threads ?(threads_per_core = 1) ~addr_of
    ?(index_lookup = fun _ _ -> 0) ?site_of (p : Ast.program) =
  if threads <= 0 || threads_per_core <= 0 || threads mod threads_per_core <> 0
  then invalid_arg "Interp.trace: bad thread configuration";
  let tagging = site_of <> None in
  let site_id =
    match site_of with Some f -> f | None -> fun (_ : Ast.ref_) -> -1
  in
  let is_index a =
    List.exists
      (fun (d : Ast.decl) -> d.Ast.index_array && String.equal d.Ast.name a)
      p.decls
  in
  (* one slot per parameter or loop-index name: [vals.(s)] holds its value
     while [bound.(s)], which only [Dynamic] reads consult *)
  let slot_of = Hashtbl.create 16 in
  let add_name x =
    if not (Hashtbl.mem slot_of x) then Hashtbl.replace slot_of x (Hashtbl.length slot_of)
  in
  List.iter (fun (n, _) -> add_name n) p.params;
  let rec names_of = function
    | Ast.Assign _ -> ()
    | Ast.If c ->
      List.iter names_of c.Ast.then_;
      List.iter names_of c.Ast.else_
    | Ast.Loop l ->
      add_name l.Ast.index;
      List.iter names_of l.Ast.body
  in
  List.iter names_of p.nests;
  let vals = Array.make (max 1 (Hashtbl.length slot_of)) 0 in
  let bound = Array.make (max 1 (Hashtbl.length slot_of)) false in
  let env0 =
    List.fold_left
      (fun env (n, v) ->
        let s = Hashtbl.find slot_of n in
        vals.(s) <- v;
        bound.(s) <- true;
        Env.add n (Param v) env)
      Env.empty p.params
  in
  (* the streams being written: thread 0's outside a parallel region, the
     running thread's inside one *)
  let bufs = Array.init threads (fun _ -> buf_make ()) in
  (* side-band site streams, index-parallel to the access streams: the
     access encoding's high bits belong to synthetic replay addresses
     (verify's V007), so ids cannot be packed into the access int *)
  let sbufs = if tagging then Array.init threads (fun _ -> buf_make ()) else [||] in
  let cur = ref bufs.(0) and cur_sites = ref (if tagging then sbufs.(0) else bufs.(0)) in
  let fn = function
    | Const n -> fun () -> n
    | Lin (0, 1, s) -> fun () -> Array.unsafe_get vals s
    | Lin (c, 1, s) -> fun () -> c + Array.unsafe_get vals s
    | Lin (c, k, s) -> fun () -> c + (k * Array.unsafe_get vals s)
    | Fn f -> f
  in
  let var env x =
    match binding env x with
    | Param v -> Const v
    | Index -> Lin (0, 1, Hashtbl.find slot_of x)
    | Unbound -> Fn (unbound x)
    | Dynamic ->
      let s = Hashtbl.find slot_of x in
      Fn (fun () -> if bound.(s) then vals.(s) else unbound x ())
  in
  (* A binary operator evaluates its right operand before its left one,
     so the right operand's loads are emitted first (the order the tree
     walker had); only the general cases below can observe it. *)
  let neg = function
    | Const x -> Const (-x)
    | Lin (c, k, s) -> Lin (-c, -k, s)
    | Fn f -> Fn (fun () -> -f ())
  in
  let add a b =
    match (a, b) with
    | Const x, Const y -> Const (x + y)
    | Lin (c, k, s), Const y | Const y, Lin (c, k, s) -> Lin (c + y, k, s)
    | Lin (c, k, s), Lin (d, j, t) when s = t -> Lin (c + d, k + j, s)
    | Fn f, Const y | Const y, Fn f -> Fn (fun () -> f () + y)
    | _ ->
      let f = fn a and g = fn b in
      Fn (fun () -> let y = g () in f () + y)
  in
  let sub a b =
    match (a, b) with
    | (Const _ | Lin _), (Const _ | Lin _) -> add a (neg b)
    | Fn f, Const y -> Fn (fun () -> f () - y)
    | _ ->
      let f = fn a and g = fn b in
      Fn (fun () -> let y = g () in f () - y)
  in
  let mul a b =
    match (a, b) with
    | Const x, Const y -> Const (x * y)
    | Lin (c, k, s), Const y | Const y, Lin (c, k, s) -> Lin (c * y, k * y, s)
    | Fn f, Const y | Const y, Fn f -> Fn (fun () -> f () * y)
    | _ ->
      let f = fn a and g = fn b in
      Fn (fun () -> let y = g () in f () * y)
  in
  (* a zero divisor is left to raise when evaluated *)
  let div a b =
    match (a, b) with
    | Const x, Const y when y <> 0 -> Const (x / y)
    | _, Const y when y <> 0 ->
      let f = fn a in
      Fn (fun () -> f () / y)
    | _ ->
      let f = fn a and g = fn b in
      Fn (fun () -> let y = g () in f () / y)
  in
  let rem a b =
    match (a, b) with
    | Const x, Const y when y <> 0 -> Const (x mod y)
    | _, Const y when y <> 0 ->
      let f = fn a in
      Fn (fun () -> f () mod y)
    | _ ->
      let f = fn a and g = fn b in
      Fn (fun () -> let y = g () in f () mod y)
  in
  let rec expr env = function
    | Ast.Int n -> Const n
    | Ast.Var x -> var env x
    | Ast.Neg a -> neg (expr env a)
    | Ast.Add (a, b) -> add (expr env a) (expr env b)
    | Ast.Sub (a, b) -> sub (expr env a) (expr env b)
    | Ast.Mul (a, b) -> mul (expr env a) (expr env b)
    | Ast.Div (a, b) -> div (expr env a) (expr env b)
    | Ast.Mod (a, b) -> rem (expr env a) (expr env b)
    | Ast.Load r -> Fn (reference env r ~write:false)
  (* One emitter per static reference.  Its subscripts fill an index
     vector allocated here and reused by every access, left to right; the
     access is then recorded, and a load of an index array returns the
     element's value (any other reference returns 0). *)
  and reference env (r : Ast.ref_) ~write =
    let subs = Array.of_list (List.map (expr env) r.Ast.subs) in
    let v = Array.make (Array.length subs) 0 in
    let addr = addr_of r.Ast.array in
    let w = if write then 1 else 0 and site = site_id r in
    let indexed = (not write) && is_index r.Ast.array in
    let lookup = if indexed then index_lookup r.Ast.array else fun _ -> 0 in
    let record () =
      buf_push !cur ((addr v lsl 1) lor w);
      if tagging then buf_push !cur_sites site;
      if indexed then lookup v else 0
    in
    let affine = function Lin (c, k, s) -> Some (c, k, s) | Const c -> Some (c, 0, 0) | Fn _ -> None in
    match Array.map affine subs with
    | [| Some (c0, k0, s0) |] ->
      fun () ->
        v.(0) <- c0 + (k0 * Array.unsafe_get vals s0);
        record ()
    | [| Some (c0, k0, s0); Some (c1, k1, s1) |] ->
      fun () ->
        v.(0) <- c0 + (k0 * Array.unsafe_get vals s0);
        v.(1) <- c1 + (k1 * Array.unsafe_get vals s1);
        record ()
    | _ -> (
      match Array.map fn subs with
      | [||] -> record
      | [| a |] ->
        fun () ->
          v.(0) <- a ();
          record ()
      | [| a; b |] ->
        fun () ->
          v.(0) <- a ();
          v.(1) <- b ();
          record ()
      | fs ->
        fun () ->
          for k = 0 to Array.length fs - 1 do
            v.(k) <- fs.(k) ()
          done;
          record ())
  in
  let seq = function
    | [||] -> fun () -> ()
    | [| f |] -> f
    | [| f; g |] ->
      fun () ->
        f ();
        g ()
    | fs -> fun () -> Array.iter (fun f -> f ()) fs
  in
  (* [par]: inside a parallel region (the tree walker's [who = Some t]):
     a nested [parfor] runs sequentially on its owner *)
  let rec body env ~par stmts =
    let env, fs =
      List.fold_left
        (fun (env, fs) s ->
          let f, env = stmt env ~par s in
          (env, f :: fs))
        (env, []) stmts
    in
    (seq (Array.of_list (List.rev fs)), env)
  and stmt env ~par = function
    | Ast.Assign (lhs, rhs) ->
      let write = reference env lhs ~write:true in
      let f =
        match expr env rhs with
        | Const _ | Lin _ -> fun () -> ignore (write ())
        | Fn rhs ->
          fun () ->
            ignore (rhs ());
            ignore (write ())
      in
      (f, env)
    | Ast.If c ->
      let l = fn (expr env c.Ast.lhs) and r = fn (expr env c.Ast.rhs) in
      let then_, env_t = body env ~par c.Ast.then_ in
      let else_, env_e = body env ~par c.Ast.else_ in
      let test =
        match c.Ast.op with
        | Ast.Lt -> fun () -> let x = l () in x < r ()
        | Ast.Le -> fun () -> let x = l () in x <= r ()
        | Ast.Gt -> fun () -> let x = l () in x > r ()
        | Ast.Ge -> fun () -> let x = l () in x >= r ()
        | Ast.Eq -> fun () -> let x = l () in x = r ()
        | Ast.Ne -> fun () -> let x = l () in x <> r ()
      in
      ((fun () -> if test () then then_ () else else_ ()), join env_t env_e)
    | Ast.Loop l ->
      let lo = fn (expr env l.Ast.lo) and hi = fn (expr env l.Ast.hi) in
      let s = Hashtbl.find slot_of l.Ast.index in
      let entry = loop_entry env l in
      let run, exit = body entry ~par:(par || l.Ast.parallel) l.Ast.body in
      let env = Env.add l.Ast.index Unbound (join env exit) in
      let iterate first last =
        for x = first to last do
          Array.unsafe_set vals s x;
          Array.unsafe_set bound s true;
          run ()
        done;
        bound.(s) <- false
      in
      if l.Ast.parallel && not par then (((fun () -> fan_out lo hi iterate)), env)
      else
        ( (fun () ->
            let first = lo () in
            iterate first (hi ())),
          env )
  (* split [lo..hi] per core, then per thread of a core *)
  and fan_out lo hi iterate =
    let lo = lo () in
    let n = max 0 (hi () - lo + 1) in
    let cores = threads / threads_per_core in
    for t = 0 to threads - 1 do
      let core = t / threads_per_core and sub = t mod threads_per_core in
      let cst, cen = chunk_bounds n cores core in
      let w = max 0 (cen - cst + 1) in
      let sst, sen = chunk_bounds w threads_per_core sub in
      cur := bufs.(t);
      if tagging then cur_sites := sbufs.(t);
      iterate (lo + cst + sst) (lo + cst + sen)
    done;
    cur := bufs.(0);
    if tagging then cur_sites := sbufs.(0)
  in
  let run_phase env nest =
    let run, env = stmt env ~par:false nest in
    run ();
    ((Array.map buf_take bufs, Array.map buf_take sbufs), env)
  in
  let _, phases =
    List.fold_left
      (fun (env, acc) nest ->
        let ph, env = run_phase env nest in
        (env, ph :: acc))
      (env0, []) p.nests
  in
  List.rev phases

let trace ~threads ?threads_per_core ~addr_of ?index_lookup p =
  List.map fst (trace_gen ~threads ?threads_per_core ~addr_of ?index_lookup p)

let trace_tagged ~threads ?threads_per_core ~addr_of ?index_lookup ~site_of p =
  trace_gen ~threads ?threads_per_core ~addr_of ?index_lookup ~site_of p
