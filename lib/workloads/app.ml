type t = {
  name : string;
  description : string;
  source : string;
  index_contents : (string * (int array -> int)) list;
  first_touch_friendly : bool;
  warmup_nests : int;
}

let make ~name ~description ?(index = []) ?(first_touch_friendly = false)
    ?(warmup_nests = 1) source =
  {
    name;
    description;
    source;
    index_contents = index;
    first_touch_friendly;
    warmup_nests;
  }

(* The built-in model sources are valid by construction; a parse failure
   here is a broken model definition, not user input. *)
let program t =
  match Lang.Parser.parse_result ~file:("<" ^ t.name ^ ">") t.source with
  | Ok p -> p
  | Error (d :: _) ->
    invalid_arg
      (Printf.sprintf "workload %s does not parse: %s" t.name d.Lang.Diag.message)
  | Error [] -> assert false

(* staged on [name]: an array without registered contents fails only when
   one of its elements is actually looked up *)
let index_lookup t name =
  match List.assoc_opt name t.index_contents with
  | Some f -> f
  | None -> fun _ -> raise Not_found
