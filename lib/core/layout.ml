module Vec = Affine.Vec
module Matrix = Affine.Matrix

type dim_expr =
  | D of int
  | Div of dim_expr * int
  | Mod of dim_expr * int
  | Perm of dim_expr * int array

type out_dim = { expr : dim_expr; extent : int }

type t = {
  array : string;
  u : Matrix.t;
  a_shift : Vec.t;
  out : out_dim array;
  orig_extents : int array;
  elem_bytes : int;
  p_elems : int;
}

let identity ~array ~extents ~elem_bytes =
  {
    array;
    u = Matrix.identity (Array.length extents);
    a_shift = Vec.zero (Array.length extents);
    out = Array.mapi (fun i n -> { expr = D i; extent = n }) extents;
    orig_extents = Array.copy extents;
    elem_bytes;
    p_elems = 1;
  }

let is_identity l =
  Matrix.equal l.u (Matrix.identity (Array.length l.orig_extents))
  && Array.length l.out = Array.length l.orig_extents
  && Array.for_all Fun.id
       (Array.mapi
          (fun i d -> d.expr = D i && d.extent = l.orig_extents.(i))
          l.out)
  && Vec.is_zero l.a_shift

let make ~array ~u ?a_shift ~out ~orig_extents ~elem_bytes ~p_elems () =
  let a_shift =
    match a_shift with Some s -> s | None -> Vec.zero (Matrix.rows u)
  in
  { array; u; a_shift; out; orig_extents; elem_bytes; p_elems }

let rec simplify_expr = function
  | D i -> D i
  | Div (e, 1) -> simplify_expr e
  | Div (e, k) -> Div (simplify_expr e, k)
  | Mod (e, k) -> Mod (simplify_expr e, k)
  | Perm (e, t) -> Perm (simplify_expr e, t)

let simplify l =
  let out =
    Array.of_list
      (List.filter_map
         (fun d ->
           if d.extent = 1 then None
           else Some { d with expr = simplify_expr d.expr })
         (Array.to_list l.out))
  in
  (* a degenerate layout must keep at least one dimension *)
  let out = if Array.length out = 0 then [| { expr = D 0; extent = 1 } |] else out in
  { l with out }

let size_elems l = Array.fold_left (fun n d -> n * d.extent) 1 l.out

let size_bytes l = size_elems l * l.elem_bytes

(* An output dimension is a chain of steps over one component of [a'],
   innermost first.  Compilation fuses nested divisions by positive
   constants (truncating division composes: (x/a)/b = x/(a·b)) and turns a
   division or modulo by a power of two into a shift or mask, with the
   exact operator kept for negative operands, where they differ. *)
type step =
  | Shift of int * int  (** [Shift (s, k)]: [x / k] with [k = 2^s] *)
  | Mask of int * int  (** [Mask (m, k)]: [x mod k] with [m = k - 1] *)
  | Quot of int
  | Rem of int
  | Table of int array

let rec chain e acc =
  match e with
  | D i -> (i, acc)
  | Div (e, k) -> chain e (Quot k :: acc)
  | Mod (e, k) -> chain e (Rem k :: acc)
  | Perm (e, t) -> chain e (Table t :: acc)

let rec fuse = function
  | Quot a :: Quot b :: rest when a > 0 && b > 0 && a <= max_int / b ->
    fuse (Quot (a * b) :: rest)
  | s :: rest -> s :: fuse rest
  | [] -> []

let log2_exact k =
  if k <= 0 || k land (k - 1) <> 0 then None
  else
    let rec go s = if 1 lsl s = k then s else go (s + 1) in
    Some (go 0)

let strength = function
  | Quot k as s -> (match log2_exact k with Some b -> Shift (b, k) | None -> s)
  | Rem k as s -> (match log2_exact k with Some _ -> Mask (k - 1, k) | None -> s)
  | s -> s

let step x = function
  | Shift (s, k) -> if x >= 0 then x asr s else x / k
  | Mask (m, k) -> if x >= 0 then x land m else x mod k
  | Quot k -> x / k
  | Rem k -> x mod k
  | Table t -> t.(x)

(* A chain that is at most one shift then one mask is a bit field of a
   non-negative component: [(x asr s) land m], with [m = -1] when there is
   no mask. *)
let bit_field = function
  | [||] -> Some (0, -1)
  | [| Shift (s, _) |] -> Some (s, -1)
  | [| Mask (m, _) |] -> Some (0, m)
  | [| Shift (s, _); Mask (m, _) |] -> Some (s, m)
  | _ -> None

let compile l =
  let u = Matrix.copy l.u and shift = Vec.copy l.a_shift in
  let rows = Matrix.rows u and cols = Matrix.cols u in
  if Vec.dim shift <> rows then fun a ->
    if Vec.dim a <> cols then invalid_arg "Matrix.mul_vec" else invalid_arg "Vec.add"
  else begin
    let unit_u = Matrix.equal u (Matrix.identity rows) && Vec.is_zero shift in
    let a' = Array.make rows 0 in
    let n = Array.length l.out in
    let src = Array.make n 0 and extent = Array.make n 0 in
    let field = Array.make n false and sh = Array.make n 0 and mask = Array.make n 0 in
    let steps =
      Array.mapi
        (fun k d ->
          let i, st = chain d.expr [] in
          let st = Array.of_list (List.map strength (fuse st)) in
          src.(k) <- i;
          extent.(k) <- d.extent;
          (match bit_field st with
          | Some (s, m) ->
            field.(k) <- true;
            sh.(k) <- s;
            mask.(k) <- m
          | None -> ());
          st)
        l.out
    in
    fun a ->
      if Vec.dim a <> cols then invalid_arg "Matrix.mul_vec";
      (* with U = I and no shift, a' is a itself *)
      let a' =
        if unit_u then a
        else begin
          for i = 0 to rows - 1 do
            let r = u.(i) in
            let s = ref shift.(i) in
            for j = 0 to cols - 1 do
              s := !s + (r.(j) * a.(j))
            done;
            a'.(i) <- !s
          done;
          a'
        end
      in
      let off = ref 0 in
      for k = 0 to n - 1 do
        let x = a'.(src.(k)) in
        let v =
          if field.(k) && x >= 0 then (x asr sh.(k)) land mask.(k)
          else begin
            let st = steps.(k) in
            let x = ref x in
            for j = 0 to Array.length st - 1 do
              x := step !x st.(j)
            done;
            !x
          end
        in
        off := (!off * extent.(k)) + v
      done;
      !off
  end

let offset_of_index l a = compile l a

let rec pp_dim_expr ~names ppf = function
  | D i -> Format.pp_print_string ppf (List.nth names i)
  | Div (e, k) -> Format.fprintf ppf "(%a)/%d" (pp_dim_expr ~names) e k
  | Mod (e, k) -> Format.fprintf ppf "(%a)%%%d" (pp_dim_expr ~names) e k
  | Perm (e, _) -> Format.fprintf ppf "__home[%a]" (pp_dim_expr ~names) e

(* Symbolic U·s over AST subscript expressions. *)
let transformed_components u subs =
  let subs = Array.of_list subs in
  Array.init (Matrix.rows u) (fun i ->
      let acc = ref None in
      Array.iteri
        (fun j c ->
          if c <> 0 then begin
            let term =
              if c = 1 then subs.(j)
              else if c = -1 then Lang.Ast.Neg subs.(j)
              else Lang.Ast.Mul (Lang.Ast.Int c, subs.(j))
            in
            acc :=
              Some (match !acc with None -> term | Some e -> Lang.Ast.Add (e, term))
          end)
        (Matrix.row u i);
      Option.value !acc ~default:(Lang.Ast.Int 0))

let transformed_subscripts l subs =
  if List.length subs <> Array.length l.orig_extents then
    invalid_arg "Layout.transformed_subscripts";
  let comps = transformed_components l.u subs in
  let comps =
    Array.mapi
      (fun i e ->
        if l.a_shift.(i) = 0 then e else Lang.Ast.Add (e, Lang.Ast.Int l.a_shift.(i)))
      comps
  in
  let rec to_expr = function
    | D i -> comps.(i)
    | Div (e, k) -> Lang.Ast.Div (to_expr e, Lang.Ast.Int k)
    | Mod (e, k) -> Lang.Ast.Mod (to_expr e, Lang.Ast.Int k)
    | Perm (e, _) ->
      (* emitted as a compiler-generated lookup (index array) *)
      Lang.Ast.Load (Lang.Ast.mk_ref ~array:"__home" ~subs:[ to_expr e ] ())
  in
  Array.to_list (Array.map (fun d -> to_expr d.expr) l.out)

let pp ppf l =
  let names =
    List.init (Array.length l.orig_extents) (fun i -> Printf.sprintf "a%d" i)
  in
  Format.fprintf ppf "@[<v>%s: U =@,%a@,dims:" l.array Matrix.pp l.u;
  Array.iter
    (fun d ->
      Format.fprintf ppf "@,  [%a] x%d" (pp_dim_expr ~names) d.expr d.extent)
    l.out;
  Format.fprintf ppf "@]"
