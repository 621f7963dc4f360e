(** Exact cost of a lowered layout under a cost model.

    Whereas the alignment heuristics estimate costs before the final block
    order is known (guessing branch directions from DFS back edges), this
    module scores a finished {!Ba_layout.Linear.t} exactly: taken-branch
    direction comes from real layout positions, fall-throughs from real
    adjacency.  It is the objective the paper's Figure 3 cycle counts are
    computed with, and the regression tests use it to verify that the
    smarter algorithms never lose to the simpler ones under their own
    model. *)

type site = {
  s_straight : float;
  s_cond : float;
  s_uncond : float;
  s_calls : float;
  s_indirect : float;
  s_returns : float;
}
(** One layout position's contribution, one field per cost category:
    straight-line instructions, conditional branches (inserted jumps
    included), unconditional branches (jumps, call continuations), direct
    calls, switches and vcalls, and returns.  Every price below is a fold
    of these, so incremental evaluators can cache sites and re-price only
    the positions a local move affects, bit-for-bit. *)

val site_cost :
  arch:Cost_model.arch ->
  table:Cost_model.table ->
  visits:(Ba_ir.Term.block_id -> int) ->
  cond_counts:(Ba_ir.Term.block_id -> int * int) ->
  Ba_layout.Linear.t ->
  int ->
  site
(** The contribution of one layout position.  Depends only on the block's
    [src]/[insns]/[term] and the position index (taken-branch direction is
    positional), never on assigned addresses. *)

val site_branch : site -> float
(** Branch cycles of one position: every category but straight-line. *)

val branch_cost_of_sites : site array -> float
(** The whole-layout fold: each category summed over the positions in
    order, then the layout-independent straight-line total subtracted.
    {!branch_cost} and the incremental evaluators price through it, so
    they agree bit for bit by construction. *)

val sites :
  arch:Cost_model.arch ->
  ?table:Cost_model.table ->
  visits:(Ba_ir.Term.block_id -> int) ->
  cond_counts:(Ba_ir.Term.block_id -> int * int) ->
  Ba_layout.Linear.t ->
  site array
(** {!site_cost} of every position.  [visits] and [cond_counts] come from
    a {!Ba_cfg.Profile}; counts are the semantic per-block numbers, so the
    same profile scores every layout of the procedure. *)

val per_block :
  arch:Cost_model.arch ->
  ?table:Cost_model.table ->
  visits:(Ba_ir.Term.block_id -> int) ->
  cond_counts:(Ba_ir.Term.block_id -> int * int) ->
  Ba_layout.Linear.t ->
  float array
(** {!site_branch} of every position.  Sums to {!branch_cost}; the static
    cost certifier cross-checks its independent recomputation against this
    position by position, so a divergence is localised to one site. *)

val branch_cost :
  arch:Cost_model.arch ->
  ?table:Cost_model.table ->
  visits:(Ba_ir.Term.block_id -> int) ->
  cond_counts:(Ba_ir.Term.block_id -> int * int) ->
  Ba_layout.Linear.t ->
  float
(** {!branch_cost_of_sites} of {!sites}: the "branch execution cost" the
    paper quotes for Figure 3. *)
