(** Per-batch timing captured by {!Pool.timed_map}.

    [task_seconds] is task-indexed (same order as the input list), so the
    record is itself deterministic in shape; only the measured durations
    vary run to run. *)

type t = {
  label : string;  (** what the batch computed, e.g. ["evaluate_suite"] *)
  jobs : int;  (** pool width the batch ran at *)
  wall_seconds : float;  (** whole-batch wall time *)
  task_labels : string array;
  task_seconds : float array;  (** per-task wall time, task-indexed *)
}

val make :
  label:string ->
  jobs:int ->
  wall_seconds:float ->
  task_labels:string array ->
  task_seconds:float array ->
  t
(** Raises [Invalid_argument] if the label and seconds arrays disagree in
    length. *)

val tasks : t -> int

val speedup : t -> float
(** Sum of per-task times (the sequential-equivalent work) over
    [wall_seconds]; 0 when the wall time is 0. *)

val render : t -> string
(** Human-readable ASCII table: one row per task plus a summary line. *)

val pp : Format.formatter -> t -> unit
