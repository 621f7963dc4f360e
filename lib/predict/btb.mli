(** Branch target buffers (paper §3).

    A set-associative cache of {e taken} branches: each entry stores the
    branch address (tag), its most recent taken target, and a 2-bit counter
    used to predict the direction of conditional branches.  Lookups that
    miss predict the fall-through path.  Replacement is LRU within a set.

    The paper simulates a 64-entry 2-way and a 256-entry 4-way BTB (the
    latter the Pentium's configuration). *)

type t

val create : entries:int -> assoc:int -> t
(** [entries] must be a positive multiple of [assoc], with a power-of-two
    set count. *)

val probe : t -> pc:int -> int
(** The slot holding the branch at [pc], or -1 on a miss.  Counts a lookup
    but does not touch replacement state. *)

val target : t -> int -> int
(** Stored target of a slot {!probe} returned. *)

val predicts_taken : t -> int -> bool
(** Direction the slot's 2-bit counter predicts. *)

val train : t -> slot:int -> pc:int -> taken:bool -> target:int -> unit
(** Train after resolving the branch, given [slot = probe t ~pc] from
    before any other update: hits update the counter (and the stored
    target when taken); misses allocate an entry only when the branch was
    taken, evicting the set's LRU entry.  Newly allocated entries start
    strongly taken. *)

val update : t -> pc:int -> taken:bool -> target:int -> unit
(** {!train} without a prior {!probe}: finds the slot itself and counts no
    lookup. *)

val entries : t -> int
val assoc : t -> int

(** {1 Pure indexing}

    Address-to-set/tag functions, factored out so static conflict analysis
    ({!Ba_conflict}) evaluates exactly the placement the simulator uses.
    [entries]/[assoc] constraints are those of {!create}. *)

val set_index : entries:int -> assoc:int -> pc:int -> int
(** Set the branch at [pc] maps to: its address's low set bits. *)

val tag_of : pc:int -> int
(** Tag stored and compared for [pc]: the full branch address. *)

val occupancy : t -> int
(** Number of valid entries; alignment reduces this by making branches fall
    through (the paper's explanation of the small-BTB benefit). *)

val flush_obs : t -> unit
(** Flush the books accumulated since the last flush to the
    [predict.btb.*] / [predict.counter2.*] counters. *)
