(** FR-FCFS memory controller (First-Ready, First-Come-First-Served).

    The scheduling policy of the simulated platform (Table 1, [16]): among
    the requests queued for a bank, one that hits the currently open row is
    served first; otherwise the oldest request wins.  Banks operate in
    parallel; the data bus of the channel serializes bursts.

    The controller is driven by a discrete-event engine: requests are
    {!enqueue}d with their arrival time; {!advance} issues everything that
    can start by the given time and reports completions; {!next_wake} says
    when issuing could next make progress. *)

type t

type scheduler =
  | Fr_fcfs  (** first-ready (row hit) first, then oldest — Table 1 *)
  | Fcfs  (** strict arrival order per bank: the naive baseline *)

type row_policy =
  | Open_page  (** rows stay open between accesses (default) *)
  | Closed_page  (** auto-precharge: every access pays the full cycle *)

val create :
  ?timing:Timing.t ->
  ?channels:int ->
  ?scheduler:scheduler ->
  ?row_policy:row_policy ->
  ?depth_hook:(now:int -> depth:int -> unit) ->
  banks:int ->
  unit ->
  t
(** [channels] (default 1) independent data buses; bank [b] transfers on
    channel [b mod channels].  The evaluated platform uses two channels
    per controller (1 GB per controller; the paper notes M1 performs well
    "assuming the number of channels per memory controller is
    sufficiently large").

    [depth_hook] is called with the current total queue depth every time a
    request is enqueued or issued — the observability layer feeds it to a
    trace counter series.  Default: no hook, no cost. *)

val enqueue :
  t -> now:int -> bank:int -> row:int -> ?write:bool -> id:int -> unit -> unit
(** [write] requests (writebacks) have lower priority: they are drained
    when their bank has no pending read, or when the controller's write
    queue exceeds a drain watermark — so they do not close the rows that
    pending reads are streaming from. *)

val advance : t -> now:int -> int
(** Issues, in feasible-start order, every pending request whose start time
    is at most [now], and returns how many it issued.  Idempotent when
    nothing can start.  The completions are read by index [0 .. n-1] with
    the [completion_*] accessors below; they stay readable until the next
    [advance].  Allocates nothing once the queues have grown to the run's
    peak depth. *)

val completion_id : t -> int -> int
(** The caller's request identifier of the [i]-th completion. *)

val completion_start : t -> int -> int
(** Cycle the bank began the access. *)

val completion_finish : t -> int -> int
(** Cycle the data burst completed. *)

val completion_queue_delay : t -> int -> int
(** start − arrival: time spent queued. *)

val completion_row_hit : t -> int -> bool

val next_wake : t -> int
(** Earliest cycle at which {!advance} would issue at least one request;
    [max_int] when the queue is empty.  Right after an {!advance} this is
    the wake its final sweep found, so it costs no second scan. *)

val pending : t -> int

val max_pending : t -> int
(** High-water mark of the total queue depth since creation/reset. *)

val served : t -> int

val row_hits : t -> int

val occupancy : t -> at:int -> float
(** Time-averaged number of queued requests over [0, at] — the bank-queue
    utilization metric of Fig. 18. *)

val reset : t -> unit
