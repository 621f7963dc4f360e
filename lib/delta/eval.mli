(** Simulator-exact incremental candidate pricing.

    One {!Stream.build} pass over the recorded trace summarises everything
    the static rules and the tables read.  {!cost} then returns, per
    requested architecture, {e exactly} the integer penalty cycles
    {!Ba_sim.Runner.simulate} would report for a full replay of the trace
    on that layout ([Bep.bep]) — the differential wall in [test_delta.ml]
    enforces bit equality.

    Static rules are priced by closed form over per-site counts; table
    predictors replay only the conditional-direction substream, with
    cached / entry-scoped fast paths when the move left predictor inputs
    unchanged; the BTB replays the trace over the candidate's flat image
    ({!Ba_trace.Replay.run}) into a real {!Ba_sim.Bep.t}, the one event
    source every architecture is judged on.  {!stats} reports which paths
    ran. *)

type spec =
  | Fallthrough
  | Btfnt
  | Likely  (** hint bits rebuilt per candidate image, as the gap study does *)
  | Pht_direct of { entries : int }
  | Pht_gshare of { entries : int; history_bits : int }
  | Btb of { entries : int; assoc : int }

val spec_label : spec -> string

val spec_of_model : Ba_core.Cost_model.arch -> spec
(** Each cost-model architecture's canonical simulated configuration
    (direct PHT 4096, BTB 256/4-way).  This is the one pairing of a cost
    model with the simulator that judges it: the optimality-gap study,
    the [bound] lint stage and [branch_align bound] all resolve it
    through {!to_arch}, which builds LIKELY hint bits from the image. *)

val to_arch :
  spec -> image:Ba_layout.Image.t -> profile:Ba_cfg.Profile.t -> Ba_sim.Bep.arch
(** The [Bep] architecture a full simulation of [image] would use — what
    the differential wall runs the reference side with. *)

type stats = {
  mutable closed_form : int;  (** static-rule closed-form evaluations *)
  mutable cond_cached : int;  (** table substream: cached base reused *)
  mutable cond_scoped : int;  (** table substream: entry-scoped dual replay *)
  mutable cond_replayed : int;  (** table substream: full replay *)
  mutable machine_runs : int;  (** BTB trace replays *)
  mutable ras_substreams : int;  (** call/return substream replays *)
}

type t

val create :
  ?ras_depth:int ->
  specs:spec array ->
  Ba_cfg.Profile.t ->
  Ba_trace.Trace.t ->
  Ba_layout.Decision.t array ->
  t
(** [create ~specs profile trace base] walks the trace once
    ({!Stream.build}), keeps it for the BTB replays, and prices the base
    layout's conditional substreams so later candidates near [base] hit
    the cached paths.  Candidates are priced at the paper's penalties
    ({!Ba_sim.Bep.misfetch_cycles}, {!Ba_sim.Bep.mispredict_cycles}) with
    a [ras_depth]-entry return stack (default
    {!Ba_sim.Bep.default_return_stack_depth}); a direct PHT takes the
    entry-scoped replay when at most 32 executed conditionals changed. *)

val stats : t -> stats

val cost : t -> Ba_layout.Decision.t array -> int array
(** Exact penalty cycles of the candidate layout, per spec — bit-equal to
    [Bep.bep] after [Runner.simulate ~trace] on the candidate's image. *)

val cost_arch : t -> int -> Ba_layout.Decision.t array -> int
(** [cost] for the single spec at the given index. *)
