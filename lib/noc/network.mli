(** Link-level contention model for the mesh.

    A message reserves, hop by hop, the directed links of its XY route.
    Each link can start forwarding one message per [serialization] window
    (packet length in flits over a 16-byte link); a message arriving at a
    busy link waits for the link to free.  Per-hop latency covers the
    2-cycle router pipeline plus wire traversal (the aggregate 4-cycle
    per-hop figure of Table 1).

    This is a wormhole approximation: it captures queueing delay — the
    quantity the paper's localization attacks — without per-flit
    simulation, and it makes off-chip and on-chip traffic contend for the
    same links, which is the paper's second effect (off-chip traffic slows
    on-chip accesses).

    On a hierarchical topology ([Topology.chiplets]), links whose
    endpoints lie in different chiplets form a second link class: they
    charge the chiplet grid's [link_latency] per hop and serialize the
    message over its [link_bytes] width.  Flat topologies are charged
    exactly as before. *)

type config = {
  per_hop_latency : int;  (** cycles per link traversal, default 4 *)
  link_bytes : int;  (** link width, default 16 *)
}

val default_config : config

type t

val create : ?config:config -> Topology.t -> t

val transfer :
  ?on_hop:(link:int -> start:int -> finish:int -> unit) ->
  t ->
  now:int ->
  src:int ->
  dst:int ->
  bytes:int ->
  int
(** Like {!send} but returns only the arrival time, allocating nothing:
    the variant the simulator's event loop uses.  The hop count equals
    [Topology.distance] (memoizable by the caller) and the contention
    delay is [arrival - now - unloaded latency].  Routes are memoized per
    (src, dst) in a flat table built from the topology on first use, so
    XY routing is not recomputed per leg. *)

val send :
  ?on_hop:(link:int -> start:int -> finish:int -> unit) ->
  t ->
  now:int ->
  src:int ->
  dst:int ->
  bytes:int ->
  int * int * int
(** [send net ~now ~src ~dst ~bytes] routes one message and returns
    [(arrival_time, hops, contention_delay)] where [contention_delay] is
    the extra time spent waiting for busy links beyond the unloaded
    latency [hops · per_hop_latency].  [src = dst] delivers instantly.

    [on_hop] is invoked once per traversed link with its link id, the
    cycle the header started on the link and the cycle it reached the next
    router — the per-link detail the request-path tracer records.  The
    default does nothing and costs nothing. *)

val reset : t -> unit
(** Clears all link reservations (between experiment runs). *)

val total_link_busy : t -> int
(** Sum over links of cycles reserved so far — a load indicator used by
    utilization statistics. *)

val utilization : t -> at:int -> float array
(** Per-link fraction of [0, at] the link was reserved — the per-link
    utilization profile behind the paper's contention analysis. *)
