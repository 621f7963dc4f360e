(** Per-workload evaluation harness.

    For one workload this runs the paper's full §5-§6 methodology:

    + execute the original layout once to collect the edge profile;
    + re-execute the original layout, feeding all seven branch
      architectures (three static, two PHTs, two BTBs) and the trace
      statistics;
    + align with Greedy (architecture-oblivious) and re-execute likewise;
    + align with ExtTsp (architecture-oblivious) likewise;
    + align with Try15, and again with the annealing search, once per
      architectural cost model (FALLTHROUGH, BT/FNT, LIKELY, PHT, BTB) and
      execute each image against that model's architectures;
    + for Figure 4, run the Alpha 21064 timing model over the original,
      Greedy and BTB-aligned Try15 images.

    All relative-CPI numbers are against the original program's instruction
    count, as in the paper. *)

type arch_cpis = {
  fallthrough : float;
  btfnt : float;
  likely : float;
  pht_direct : float;
  gshare : float;
  btb64 : float;
  btb256 : float;
}

val full_archs : [ `Arch of Ba_sim.Bep.arch | `Likely ] list
(** The seven simulated branch architectures of Tables 3/4, in column
    order.  [`Likely] stands for profile-guided hint bits, which must be
    rebuilt per image ({!Ba_predict.Likely_bits.build}); the placement
    table reuses this list so its columns match. *)

type eval = {
  workload : Ba_workloads.Spec.t;
  orig_insns : int;
  stats : Ba_exec.Trace_stats.summary;  (** Table 2 row, original layout *)
  orig : arch_cpis;  (** Table 3/4 "Orig" columns *)
  greedy : arch_cpis;  (** Table 3/4 "Greedy" columns *)
  exttsp : arch_cpis;
      (** Table 3/4 "ExtTsp" columns: extended-TSP chain merging
          ({!Ba_core.Exttsp}); architecture-oblivious, so one image feeds
          all seven architectures, as Greedy's does *)
  try15 : arch_cpis;
      (** Table 3/4 "Try15" columns; each architecture's figure comes from
          the image aligned with that architecture's cost model *)
  anneal : arch_cpis;
      (** Table 3/4 "Anneal" columns: the seeded simulated-annealing
          search ({!Ba_delta.Anneal}, seed 0), aligned per cost model
          like Try15 *)
  pct_ft_orig : float;  (** fall-through conditional percentage, original *)
  pct_ft_greedy : float;
  pct_ft_try15_ft : float;  (** after Try15 under the FALLTHROUGH model *)
  pct_ft_try15_btfnt : float;
  pct_ft_try15_likely : float;
  alpha : (float * float * float) option;
      (** Figure 4: (orig, greedy, try15-BTB) relative execution times on
          the 21064 model; computed for the SPEC C programs *)
}

val run_image :
  max_steps:int ->
  profile:Ba_cfg.Profile.t ->
  trace:Ba_trace.Trace.t ->
  archs:[ `Arch of Ba_sim.Bep.arch | `Likely ] list ->
  Ba_layout.Image.t ->
  Ba_sim.Runner.outcome
(** Replay [trace] through one image against [archs], resolving each
    [`Likely] to hint bits built from that image
    ({!Ba_predict.Likely_bits.build}): profile-guided hints follow the
    rewritten binary. *)

val evaluate : ?max_steps:int -> Ba_workloads.Spec.t -> eval
(** [max_steps] defaults to {!Ba_workloads.Spec.default_max_steps}.  The
    workload's profile {e and} semantic trace come from the
    process-wide {!Ba_workloads.Profiled} memo, so the interpreter runs
    only once per workload per budget; every image (original included) is
    then scored by replaying the trace ({!run_image}). *)

val evaluate_suite :
  ?max_steps:int -> ?jobs:int -> Ba_workloads.Spec.t list -> eval list
(** Evaluate the workloads on a {!Ba_par.Pool} of [jobs] domains (default
    {!Ba_par.Pool.default_jobs}, i.e. the [BA_JOBS] environment variable or
    the machine's domain count; [jobs = 1] forces the sequential path).
    Results are returned in workload order whatever the scheduling, so
    every rendered table is byte-identical to a sequential run. *)

val evaluate_suite_timed :
  ?max_steps:int ->
  ?jobs:int ->
  Ba_workloads.Spec.t list ->
  eval list * Ba_par.Stats.t
(** {!evaluate_suite} plus per-workload wall times. *)

val class_groups : eval list -> (string * eval list) list
(** Group evaluations by workload class, preserving order, with the
    paper's group labels. *)
