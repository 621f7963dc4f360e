(** The measured optimality-gap table ([experiments gap]).

    For each workload x cost-model architecture: the exact simulated
    penalty cycles of the Greedy, Cost, ExtTsp and Try15 layouts, and the
    {!Ba_core.Optimal} branch-and-bound result over the Try15 layout's k
    hottest chains — an exactly-priced optimum over the candidate set,
    reached while pruning most candidates on their {!Ba_bound} lower
    bounds alone.  The gap columns are each algorithm's distance from that
    optimum; [gap(try15)] is always [>= 0] because the identity reordering
    is itself a candidate.

    Every simulation replays the workload's recorded trace, so the table
    is deterministic at any [-j].  Candidates are priced with
    {!Ba_delta.Eval} — bit-equal to the full replay, in O(affected sites)
    per candidate.  The [anneal] column is the seeded simulated-annealing
    search ({!Ba_delta.Anneal}, seed 0). *)

type cell = {
  model : Ba_core.Cost_model.arch;
  greedy : int;  (** penalty cycles, Greedy layout *)
  cost : int;
  exttsp : int;  (** penalty cycles, extended-TSP chain-merging layout *)
  try15 : int;  (** penalty cycles, Try15 layout: Optimal-k's starting point *)
  anneal : int;  (** penalty cycles, simulated-annealing layout (seed 0) *)
  optimal : int;  (** Optimal-k best exactly-priced cost *)
  opt_lower : int;  (** that winner's own static lower bound *)
  candidates : int;
  simulated : int;
  pruned : int;
}

type row = { workload : Ba_workloads.Spec.t; cells : cell list }

val evaluate : ?max_steps:int -> ?k:int -> Ba_workloads.Spec.t -> row
(** One row per {!Ba_core.Cost_model.all_arches} model, in that order. *)

val evaluate_suite :
  ?max_steps:int ->
  ?k:int ->
  ?jobs:int ->
  Ba_workloads.Spec.t list ->
  row list
(** Deterministic parallel evaluation, one task per workload. *)

val render : row list -> string
val to_json : row list -> Ba_util.Json.t
