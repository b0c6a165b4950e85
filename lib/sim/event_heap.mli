(** Event queue of timestamped events: a timing wheel of per-cycle FIFO
    buckets covering the next 4096 cycles after the latest pop, in front
    of a binary min-heap that takes every other push (further ahead, or
    earlier than the latest pop).

    Events pop in (time, insertion order): ties are broken by insertion
    order, which keeps runs deterministic, and the order is exactly that
    of a single binary heap.  Payloads are ints (the engine encodes each
    event as an int code).  Keys and payloads live in unboxed int arrays,
    so steady-state pushes and the {!next_time}/{!pop_payload} pair
    allocate nothing.  A push or pop inside the window is O(1) (a pop
    that empties a bucket scans an occupancy bitmap, 32 buckets per
    word, for the next one); overflow pushes and pops are O(log n). *)

type t

val create : unit -> t

val push : t -> time:int -> int -> unit

val pop : t -> (int * int) option
(** The earliest event, or [None] when empty. *)

val next_time : t -> int
(** Timestamp of the earliest event without removing it.
    @raise Invalid_argument when the queue is empty. *)

val pop_payload : t -> int
(** Removes and returns the earliest event's payload (allocation-free
    counterpart of {!pop}; read {!next_time} first for the timestamp).
    @raise Invalid_argument when the queue is empty. *)

val is_empty : t -> bool

val size : t -> int
