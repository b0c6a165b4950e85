(** Workload models.

    Each of the paper's 13 applications (SPEC OMP minus equake, plus
    three Mantevo mini-apps) is modeled by the mini-language kernel of
    its dominant parallel loop nests, scaled down to match the scaled
    simulator caches, with per-app characteristics chosen to match what
    the paper reports: which apps share data heavily, which stress the
    bank queues, which are friendly to first-touch placement, and which
    access data through index arrays. *)

type t = {
  name : string;
  description : string;
  source : string;  (** mini-language text *)
  index_contents : (string * (int array -> int)) list;
      (** contents of each [index] array, as a function of the index
          vector *)
  first_touch_friendly : bool;
      (** documentation: does the first-touch policy place this app's
          pages well? (wupwise, gafort, minimd per Section 6.3) *)
  warmup_nests : int;
      (** leading initialization nests, excluded from measurement *)
}

val make :
  name:string ->
  description:string ->
  ?index:(string * (int array -> int)) list ->
  ?first_touch_friendly:bool ->
  ?warmup_nests:int ->
  string ->
  t

val program : t -> Lang.Ast.program
(** Parses the source (raises on malformed kernels — exercised by the
    test suite for every app). *)

val index_lookup : t -> string -> int array -> int
(** Contents of an index array element; raises [Not_found] for arrays
    without registered contents.  Staged: [index_lookup t name] resolves
    the array once, and fails only when the function it returns is
    called. *)
