(** Recording semantic traces.

    One {!Ba_exec.Engine.run} pass can produce the profile {e and} the
    trace — the record-once half of the paper's "instrument once, simulate
    many" workflow.  Everything downstream then replays. *)

val run :
  ?profile:Ba_cfg.Profile.t ->
  ?max_steps:int ->
  Ba_layout.Image.t ->
  Ba_exec.Engine.result * Trace.t
(** {!Ba_exec.Engine.run} with the decision hooks wired into a
    {!Trace.Builder}, filling [profile] when given. *)

val profile_and_record :
  ?max_steps:int -> Ba_ir.Program.t -> Ba_cfg.Profile.t * Trace.t
(** Run the original layout once, collecting the profile and the trace in
    the same pass — a drop-in replacement for
    {!Ba_exec.Engine.profile_program} that also yields the trace.  Uses the
    same ["profile"] span. *)
