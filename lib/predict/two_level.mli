(** Two-level adaptive predictors (paper §3).

    The paper's correlation PHT is McFarling's xor (gshare) variant, in
    {!Pht}.  This module provides the other two schemes §3 discusses, for
    completeness of the predictor library:

    - {b Global} — the "degenerate method of Pan et al.": a k-bit global
      taken/not-taken shift register directly indexes the pattern table
      (the paper's example: a 12-bit register and a 4096-entry table).  The
      branch address is not used at all.
    - {b Local} — Yeh & Patt's two-level scheme: a per-branch history table
      (indexed by address) holds each branch's own last k outcomes, which
      index the shared pattern table of 2-bit counters.  Local history
      predicts fixed per-branch patterns (e.g. loop trip counts up to k)
      perfectly once trained, regardless of interleaving. *)

type t

val create_global : ?history_bits:int -> unit -> t
(** Default 12 bits (4096-entry pattern table). *)

val create_local :
  ?history_bits:int -> ?branch_entries:int -> unit -> t
(** Defaults: 12-bit local histories, 1024 branch-history entries. *)

val predict : t -> pc:int -> bool

val step : t -> pc:int -> taken:bool -> bool
(** One executed conditional: return the prediction {!predict} would have
    made, then train as {!update} does, computing the indices once. *)

val update : t -> pc:int -> taken:bool -> unit
(** Train the indexed counter and shift the outcome into the history
    register; {!step} without counting a lookup. *)

val name : t -> string

val local_index : branch_entries:int -> pc:int -> int
(** Pure indexing of the {e local} scheme's per-branch history table: which
    history register the conditional at [pc] reads and shifts.  Shared with
    static conflict analysis ({!Ba_conflict}); [branch_entries] must be a
    power of two, as in {!create_local}. *)

val flush_obs : t -> unit
(** Flush the books accumulated since the last flush to the
    [predict.two_level.*] / [predict.counter2.*] counters. *)
