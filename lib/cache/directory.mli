(** L2 tag directory for the private-L2 organization.

    With per-core private L2s, an L2 miss consults a centralized directory
    cached at the memory controller that owns the line (paper, Fig. 2a).
    The directory knows which private L2s hold a copy and either forwards
    the request to a sharer (on-chip transfer) or issues an off-chip
    access.  Holders are tracked as a bitmask, supporting up to 63 nodes
    in a native int and arbitrarily many via the two-word representation
    used here (the default platform has 64 nodes).

    Tracked lines sit in an open-addressing table of flat int arrays
    (linear probing, backward-shift deletion, doubling at half load):
    every operation is expected O(1) plus, for {!holders} and
    {!closest_holder}, a walk over the holder bits, and none but a
    table growth or {!holders} allocates. *)

type t

val create : nodes:int -> t

val add_holder : t -> line:int -> node:int -> unit
(** @raise Invalid_argument unless [0 <= node < nodes] and [line <> -1]
    (the table's empty-slot marker; line addresses are aligned). *)

val remove_holder : t -> line:int -> node:int -> unit

val holders : t -> line:int -> int list
(** Nodes currently holding the line, ascending. *)

val closest_holder :
  t -> line:int -> excluding:int -> distance:(int -> int) -> unit -> int
(** The holder minimizing [distance] (e.g. hops from the requester; the
    lowest node on ties), or [-1] if no other L2 holds the line.  Builds
    no list.  [excluding] removes that node from consideration, [-1] for
    none: the engine passes the requester itself (it is registered as a
    holder as soon as its fill is in flight). *)

val clear : t -> unit
