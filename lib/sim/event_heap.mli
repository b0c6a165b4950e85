(** Binary min-heap of timestamped events.

    Ties are broken by insertion order, which keeps runs deterministic.
    Payloads are ints (the engine encodes each event as an int code).
    Keys and payloads live in unboxed parallel arrays, so steady-state
    pushes and the {!next_time}/{!pop_payload} pair allocate nothing. *)

type t

val create : unit -> t

val push : t -> time:int -> int -> unit

val pop : t -> (int * int) option
(** The earliest event, or [None] when empty. *)

val next_time : t -> int
(** Timestamp of the earliest event without removing it.
    @raise Invalid_argument when the heap is empty. *)

val pop_payload : t -> int
(** Removes and returns the earliest event's payload (allocation-free
    counterpart of {!pop}; read {!next_time} first for the timestamp).
    @raise Invalid_argument when the heap is empty. *)

val is_empty : t -> bool

val size : t -> int
