(** Trace generation.

    Runs a mini-language program with OpenMP-style static scheduling:
    the iterations of each [parfor] are split into contiguous chunks, one
    per thread, threads bound to cores in order (paper, footnote 5).  The
    generator does not compute array values — it enumerates the memory
    accesses each thread performs and encodes each as a virtual address,
    using a caller-supplied address function (which is where the layout
    transformation plugs in).

    A top-level nest is a {e phase}; phases are separated by barriers
    (OpenMP join), which the downstream engine honours.

    Each nest is compiled to closures once, just before it runs: program
    parameters fold to constants, loop indices live in int slots, and
    every static array reference gets its own emitter.  Hence:

    - [addr_of] and [index_lookup] are applied to the array name once per
      static reference (when its nest is compiled), and the resulting
      functions once per access.  A caller can stage work — a table
      lookup, a compiled layout — between the two arguments.  A partial
      application should not fail: an array that is never accessed must
      not make the trace fail.
    - The index vector passed to the staged functions belongs to the
      reference and is overwritten by its next access: a callee must not
      keep it.

    Emission order within a statement is fixed:
    - the operands of [+ - * / %] are evaluated right before left, so the
      right operand's loads are emitted first;
    - an [if] evaluates the condition's lhs, then its rhs;
    - a loop evaluates [lo], then [hi];
    - a reference evaluates its subscripts left to right, then emits;
    - an assignment emits its rhs, then the lhs subscripts, then the
      write.

    A variable is bound by a parameter or by the loop over it, for the
    loop's iterations only: when a loop ends its index is unbound, even
    if it shadowed a parameter or an enclosing loop's index, and it stays
    unbound in later nests.  Reading an unbound variable raises
    [Diag.Fatal] with code I001 when the read is evaluated. *)

type access = int
(** [(vaddr lsl 1) lor w] with [w = 1] for writes. *)

val addr_of_access : access -> int

val is_write : access -> bool

type phase = access array array
(** [phase.(t)] is thread [t]'s access stream for one top-level nest, in
    program order. *)

val trace :
  threads:int ->
  ?threads_per_core:int ->
  addr_of:(string -> Affine.Vec.t -> int) ->
  ?index_lookup:(string -> Affine.Vec.t -> int) ->
  Ast.program ->
  phase list
(** [trace ~threads ~addr_of p] runs [p] with [threads] threads.
    [addr_of array index_vector] must give the virtual address of an array
    element (layout-dependent).  [index_lookup] supplies the {e values} of
    index arrays (default: 0), used to resolve indexed subscripts; reads
    of index arrays still appear in the trace via [addr_of].

    [threads_per_core] (default 1) only affects how a [parfor] is split:
    with [t] threads per core, threads [c·t .. c·t+t-1] share core [c] and
    split that core's chunk among themselves, so the Data-to-Core mapping
    is the same as with one thread per core (the paper's Fig. 24 setup).

    Loops whose bounds are not constant at entry (they may depend on outer
    iterators) are evaluated dynamically.  Statements outside any [parfor]
    run on thread 0. *)

val trace_tagged :
  threads:int ->
  ?threads_per_core:int ->
  addr_of:(string -> Affine.Vec.t -> int) ->
  ?index_lookup:(string -> Affine.Vec.t -> int) ->
  site_of:(Ast.ref_ -> int) ->
  Ast.program ->
  (phase * int array array) list
(** Like {!trace}, but each phase additionally carries a {e site stream}
    per thread, index-parallel to the access stream: element [i] is
    [site_of r] for the reference that emitted access [i] (typically
    {!Sites.id_of_ref}).  Site ids travel in this side band — not in the
    access encoding — because the verifier's synthetic replay addresses
    own the access int's high bits. *)
