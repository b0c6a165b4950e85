(** Virtual-to-physical translation and page-allocation policies.

    Under cache-line interleaving the MC-selection bits lie inside the page
    offset, so translation is irrelevant to controller choice and frames
    are handed out sequentially.  Under page interleaving the frame number
    decides the controller, and the policy matters:

    - {!Hardware_interleaved}: consecutive virtual pages rotate over
      controllers — the paper's unoptimized page-interleaved baseline.
    - {!First_touch}: the page is placed on the controller of the cluster
      whose node touches it first (the OS baseline of Section 6.3, [20]).
    - {!Mc_aware}: the compiler communicates the desired controller for
      the virtual pages of the arrays it transformed (madvise-style); the
      allocator honours the hint, placing unhinted pages (untransformed
      arrays, index arrays) by first touch — the compiler/OS combination
      the paper's Section 6.4 suggests.  When the hinted controller's
      memory is full an alternate is used, so no page faults are added
      (Section 5.3).

    The allocator is shared across tenants in the consolidation server:
    each controller's pool is bounded by [frames_per_mc] {e live} frames
    (reclaimed frames are reused before the bump pointer advances, so a
    departed tenant's memory really comes back), and every policy spills
    to an alternate controller — counting a fallback — when the chosen
    controller is full.

    Mappings live in a two-level radix table: 4096-entry leaves, each
    allocated on the first mapping inside it, under a top level that
    grows to the highest leaf touched (up to 2{^16} leaves, i.e. 2{^28}
    pages; negative or farther pages go to a hash table).  Translating a
    mapped page is O(1) and allocates nothing; {!free_region} is linear
    in the allocated leaves its range covers and skips the others whole;
    {!pages_allocated} is O(1). *)

type policy =
  | Hardware_interleaved
  | First_touch of (int -> int)
      (** [node → cluster MC] for the first-touching node *)
  | Mc_aware of { desired : int -> int option; fallback : int -> int }
      (** [desired vpage] from the layout; [fallback node] is the
          first-touch cluster controller for unhinted pages *)

type t

val create :
  map:Dram.Address_map.t -> policy:policy -> ?frames_per_mc:int -> unit -> t
(** [frames_per_mc] bounds each controller's pool of live frames
    (default: unbounded in practice, 1 GB per controller as in Table 1's
    4 GB capacity). *)

val translate : t -> node:int -> vaddr:int -> int
(** Physical address; allocates the page on first touch.  [node] is the
    requesting mesh node (used by first-touch). *)

val translate_owned : t -> owner:int -> node:int -> vaddr:int -> int
(** Like {!translate}, but charges any fallback allocation this access
    triggers to [owner] (a tenant/job id; see
    {!fallback_allocations_of}).  [owner < 0] charges nobody —
    [translate] is [translate_owned ~owner:(-1)]. *)

val free_region : t -> first_vpage:int -> last_vpage:int -> int
(** Unmaps every allocated page in the inclusive virtual-page range and
    returns the frames to their controllers' free lists (tenant
    departure).  Returns the number of pages actually freed; unallocated
    pages in the range are skipped. *)

val mc_of_vpage : t -> int -> int option
(** Controller currently holding a virtual page, if allocated (page
    interleaving only — under line interleaving pages span all MCs). *)

val pages_allocated : t -> int
(** Pages currently mapped (freed pages no longer count). *)

val fallback_allocations : t -> int
(** Pages that could not be placed on their desired controller. *)

val fallback_allocations_of : t -> owner:int -> int
(** Fallbacks charged to one owner tag via {!translate_owned}. *)

val reset : t -> unit
