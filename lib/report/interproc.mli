(** The inter-procedural layout report ([experiments interproc]).

    For each workload: align with ExtTsp, build both the classic
    per-procedure image ({!Ba_layout.Image.build}) and the stitched
    inter-procedural one ({!Ba_layout.Image.build_interproc}) from the
    {e same} decisions, prove the stitched layout (per-procedure
    bisimulation, whole-image address map, cost certificates), and
    replay the recorded trace through both images on all seven simulated
    branch architectures.  The penalty columns show what call-graph
    stitching and hot/cold splitting buy on top of intra-procedural
    alignment alone.

    Every simulation replays the workload's recorded trace and both the
    alignment and the stitching are deterministic, so the table is
    byte-identical at any [-j]. *)

type row = {
  workload : Ba_workloads.Spec.t;
  procs : int;
  split_procs : int;  (** procedures with a cold suffix moved away *)
  cold_insns : int;  (** instruction slots in the trailing cold section *)
  verified : bool;
      (** stitched image bisimulates, its whole-image address map checks
          out, and every architecture's cost certificate cross-checked *)
  plain : int array;
      (** penalty cycles per architecture ({!Harness.full_archs} order),
          classic per-procedure image *)
  stitched : int array;  (** same, inter-procedural image *)
}

val evaluate : ?max_steps:int -> Ba_workloads.Spec.t -> row

val evaluate_suite :
  ?max_steps:int -> ?jobs:int -> Ba_workloads.Spec.t list -> row list
(** Deterministic parallel evaluation, one task per workload. *)

val render : row list -> string
val to_json : row list -> Ba_util.Json.t
