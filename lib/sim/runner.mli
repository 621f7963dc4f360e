(** One execution, many architectures.

    Branch predictors are independent consumers of the same event stream, so
    a single interpreter pass can drive every architecture of interest at
    once — the trace-driven methodology of the paper, without storing the
    trace.  With [?trace], even the interpreter pass is elided: the recorded
    semantic decisions are replayed through the image's flat form
    ({!Ba_trace.Replay}), producing the byte-identical event stream at a
    fraction of the cost. *)

type outcome = {
  result : Ba_exec.Engine.result;
  sims : (Bep.arch * Bep.t) array;  (** in the order given *)
  stats : Ba_exec.Trace_stats.t;  (** trace statistics of the same run *)
}

val simulate :
  ?max_steps:int ->
  ?return_stack_depth:int ->
  ?trace:Ba_trace.Trace.t ->
  archs:Bep.arch list ->
  Ba_layout.Image.t ->
  outcome
(** When [trace] is supplied it must have been recorded from the same
    program (any layout) with a budget of at least [max_steps]; the replay
    drives every simulator with exactly the events a direct run would, and
    [max_steps] is ignored in favour of the recorded step count. *)

val simulate_alpha :
  ?max_steps:int ->
  ?config:Alpha.config ->
  ?fp_fraction:float ->
  ?trace:Ba_trace.Trace.t ->
  Ba_layout.Image.t ->
  Ba_exec.Engine.result * Alpha.t
(** Run the 21064 timing model over one image.  [fp_fraction], when given,
    materialises the image's instructions ({!Ba_isa.Codegen}) with that
    floating-point share and uses the dual-issue pairing model for base
    cycles instead of the ideal issue width.  [trace] replays as in
    {!simulate}. *)

val relative_cpis :
  outcome -> orig_insns:int -> (Bep.arch * float) list
(** Relative CPI of every simulated architecture, against the original
    program's instruction count. *)
