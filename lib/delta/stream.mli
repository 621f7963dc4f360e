(** Layout-independent execution summaries.

    One {!Ba_trace.Replay.run} of the recorded trace over the program's
    identity layout, where global position = site id, yields per-site
    counts plus the conditional-direction and call/return substreams.
    The replayer is the only trace decoder; this module only consumes its
    block and branch events.  Everything here is a function of the program and the
    semantic trace only — no candidate layout's addresses appear — so one
    [build] serves every layout {!Eval} prices. *)

type t = {
  program : Ba_ir.Program.t;
  pbase : int array;  (** first site of each procedure *)
  n_sites : int;
  site_proc : int array;
  site_block : int array;
  opcode : int array;  (** semantic terminator class per site (Flat codes) *)
  ras_recs : int array;
      (** call/return substream, in execution order: [2 * site] per call
          or vcall, [2 * (frame + 1) + 1] per return, where [frame] is the
          pushing call site or [-1] on underflow *)
  cond_recs : int array;  (** [(site lsl 1) lor outcome], conditionals only *)
  n_exec : int array;  (** per site *)
  n_true : int array;  (** semantic [true] outcomes, per conditional site *)
  n_false : int array;
  n_rets_to : int array;  (** frames pushed at this call site and popped *)
  n_underflow : int;  (** returns executed with an empty frame stack *)
  max_depth : int;  (** deepest call-stack depth the run reached *)
}

val build : Ba_ir.Program.t -> Ba_trace.Trace.t -> t
(** Replays the trace once.  Raises the replayer's [Failure] on a
    truncated trace or a choice out of range. *)
