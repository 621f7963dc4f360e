(** Pattern history tables (paper §3, "Dynamic Branch Prediction Methods").

    Both variants store 2-bit saturating counters and predict conditional
    branch {e directions} only (they do nothing for misfetches):

    - {b direct-mapped}: indexed by the branch address;
    - {b gshare}: indexed by the branch address XORed with a global
      taken/not-taken history register — the variant McFarling found most
      accurate, used by the paper as its "correlation PHT".

    The paper's configuration is 4096 entries (1 KByte of 2-bit counters)
    and, for the correlation table, a 12-bit global history. *)

type t

val create_direct : entries:int -> t
(** [entries] must be a power of two. *)

val create_gshare : entries:int -> history_bits:int -> t

val predict : t -> pc:int -> bool
(** Predicted direction for the conditional at [pc] (does not update any
    state). *)

val step : t -> pc:int -> taken:bool -> bool
(** One executed conditional: return the prediction {!predict} would have
    made, then train as {!update} does, computing the index once. *)

val update : t -> pc:int -> taken:bool -> unit
(** Train the indexed counter and (gshare) shift the outcome into the global
    history; {!step} without counting a lookup. *)

val entries : t -> int

(** {1 Pure indexing}

    The address-to-entry functions, factored out so static analysis
    ({!Ba_conflict}) evaluates exactly the hash the simulator uses.
    [entries] must be a power of two, as in {!create_direct}. *)

val direct_index : entries:int -> pc:int -> int
(** Entry the direct-mapped table consults for the conditional at [pc]. *)

val gshare_index : entries:int -> history:int -> pc:int -> int
(** Entry the gshare table consults for [pc] under a given global history
    register value.  The history is dynamic state; address-only analyses
    conventionally project it to 0. *)

val flush_obs : t -> unit
(** Flush the books accumulated since the last flush to the
    [predict.pht.*] / [predict.counter2.*] counters; the lookup and update
    paths themselves never touch the registry. *)
