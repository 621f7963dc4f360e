(** The pipeline queries the command line and the server share.

    [branch_align] renders these results as ASCII tables and
    [Ba_serve.Handler] renders them as JSON, so a served body carries the
    same numbers the command line prints.  Every query is a pure function
    of its arguments — profiles and traces come from the deterministic
    {!Ba_workloads.Profiled} cache — so results are byte-identical at any
    [-j]. *)

(** {1 Algorithms} *)

type algo = Core of Ba_core.Align.algo | Anneal
(** One of {!Ba_core.Align}'s algorithms, or the seeded annealing search
    ({!Ba_delta.Anneal}), which prices moves through Ba_delta's incremental
    model and therefore lives outside [Ba_core.Align.algo]. *)

val algo_name : algo -> string

val algo_of_name : string -> (algo, string) result
(** [anneal], or any {!Ba_core.Align.algo_of_name} spelling. *)

type anneal = { seed : int; sweeps : int; pool : Ba_par.Pool.t option }
(** How {!Anneal} runs: its PRNG seed, its sweeps per procedure, and the
    pool its per-procedure walks fan out over ([None] runs them inline).
    Each procedure draws from its own (seed, procedure) stream, so the pool
    never changes the result.  The [Core] algorithms ignore all three. *)

val inline_anneal : anneal
(** Seed 0, {!Ba_delta.Anneal.default_sweeps}, no pool: the defaults of
    [branch_align align] and of the server, whose handlers already run
    inside pool tasks. *)

val decisions :
  anneal:anneal ->
  algo ->
  arch:Ba_core.Cost_model.arch ->
  Ba_cfg.Profile.t ->
  Ba_layout.Decision.t array
(** Every procedure's layout decision.  [Core Original] is the identity
    layout, built without entering the aligner (so no [align] spans). *)

val image :
  Ba_core.Align.algo -> arch:Ba_core.Cost_model.arch -> Ba_cfg.Profile.t ->
  Ba_layout.Image.t
(** The lowered image of {!decisions}: {!Ba_layout.Image.original} for
    [Original], {!Ba_core.Align.image} otherwise. *)

(** {1 Simulation} *)

val replay_archs : Ba_sim.Bep.arch list
(** The simulated architectures that need no image-side metadata:
    FALLTHROUGH, BT/FNT, PHT-4096, gshare-4096 and BTB-256/4. *)

val simulate_image :
  max_steps:int ->
  trace:Ba_trace.Trace.t ->
  Ba_cfg.Profile.t ->
  Ba_layout.Image.t ->
  Ba_sim.Runner.outcome
(** Replay [trace] through the image on the canonical simulated
    architecture list: LIKELY (its bits derived from the image and the
    profile) followed by {!replay_archs}. *)

val simulate :
  Ba_core.Align.algo ->
  arch:Ba_core.Cost_model.arch ->
  max_steps:int ->
  Ba_workloads.Spec.t ->
  Ba_sim.Runner.outcome
(** Profile (or fetch the cached trace), align, lower and simulate one
    workload. *)

(** {1 Layout listing} *)

type proc_layout = {
  proc : int;
  name : string;
  order : int array;  (** block ids in layout order *)
  forced : (int * Ba_layout.Decision.jump_leg) list;
      (** blocks whose both legs need a jump, ascending, with the leg
          that got the inserted jump *)
  cost : float;  (** {!Ba_delta.Model} expected cost under [arch] *)
}

type listing = {
  procs : proc_layout list;
  total_cost : float;
  penalty_model : string;  (** {!Ba_delta.Eval.spec_label} of [arch] *)
  penalty_cycles : int;
      (** exact penalty cycles ([Bep.bep]) of one trace replay of the
          layout on [arch]'s simulated architecture
          ({!Ba_delta.Eval.spec_of_model}) *)
}

val align :
  anneal:anneal ->
  algo ->
  arch:Ba_core.Cost_model.arch ->
  max_steps:int ->
  Ba_workloads.Spec.t ->
  listing
(** Align one workload and price the result, procedure by procedure. *)
