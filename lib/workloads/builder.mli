(** A structured-control-flow DSL for constructing workload programs.

    The builder emits blocks in the order a simple compiler would: loop
    tests at the top with a backward jump at the bottom of the body,
    if/then/else with the then-arm falling through and a jump over the else
    arm, switch cases in declaration order.  That "naive" original layout is
    deliberate — it is the layout the paper's binary transformations start
    from.

    Procedures are declared first (so call graphs, including recursion and
    mutual calls, can be wired), then defined.  Inside a definition,
    combinators return {!region} values: a sub-CFG with one entry and a
    [patch_next] closure that wires every dangling exit to the
    continuation.  Each combinator allocates its blocks at call time, so the
    textual order of combinator calls is the original code layout. *)

type t
(** A program under construction. *)

type pb
(** A procedure body under construction. *)

type region = {
  entry : Ba_ir.Term.block_id;
  patch_next : Ba_ir.Term.block_id -> unit;
      (** wire all dangling exits; must be called exactly once *)
}

val create : name:string -> seed:int -> t

val declare : t -> name:string -> Ba_ir.Term.proc_id
(** Reserve a procedure id.  The first declaration is the main procedure. *)

val define : t -> Ba_ir.Term.proc_id -> (pb -> region) -> unit
(** Define a declared procedure's body; the body region's continuation is a
    fresh [Ret] block ([Halt] for the main procedure).  Raises
    [Invalid_argument] on double definition. *)

val build : t -> Ba_ir.Program.t
(** Assemble and validate.  Raises [Invalid_argument] if any declared
    procedure is undefined or validation fails. *)

(** {1 Regions} *)

val basic : pb -> ?insns:int -> unit -> region
(** A straight-line block. *)

val seq : pb -> (pb -> region) list -> region
(** Build sub-regions in order and chain them.  The list must be
    non-empty. *)

val while_loop :
  ?behavior:Ba_ir.Behavior.t ->
  pb ->
  trips:int ->
  body:(pb -> region) ->
  region
(** Top-tested loop: [header: if done goto exit; body; goto header], with
    a 2-instruction header.  The default behaviour is [Loop trips]; pass
    [behavior] for data-dependent continuation tests (its [true] outcome
    means "continue"). *)

val do_while :
  ?latch_insns:int ->
  ?behavior:Ba_ir.Behavior.t ->
  pb ->
  trips:int ->
  body:(pb -> region) ->
  region
(** Bottom-tested loop: [body; latch: if again goto body].  The backward
    conditional is taken on every iteration but the last — the high
    taken-rate pattern of Fortran inner loops. *)

val driver :
  ?behavior:Ba_ir.Behavior.t ->
  pb ->
  trips:int ->
  body:(pb -> region) ->
  region
(** A program's main loop: a short prologue block (6 instructions of
    setup/argument parsing)
    followed by a top-tested loop.  The prologue matters structurally: it
    keeps the loop header off the procedure's pinned entry address, so
    alignment is free to rotate the loop. *)

val self_loop : ?insns:int -> pb -> trips:int -> region
(** A single block that branches back to itself — the ALVINN [input_hidden]
    pattern of the paper's Figure 2. *)

val if_else :
  ?behavior:Ba_ir.Behavior.t ->
  pb ->
  p_true:float ->
  then_:(pb -> region) ->
  else_:(pb -> region) ->
  region
(** Two-armed conditional behind a 3-instruction test block; the then-arm
    falls through when the condition holds.  Default behaviour is [Bias p_true]. *)

val if_then :
  ?cond_insns:int ->
  ?behavior:Ba_ir.Behavior.t ->
  pb ->
  p_true:float ->
  then_:(pb -> region) ->
  region
(** One-armed conditional: the false edge skips the arm.  The test block
    has [cond_insns] instructions (default 3). *)

val switch :
  ?insns:int -> pb -> cases:(float * (pb -> region)) list -> region
(** Indirect multi-way dispatch; case bodies are emitted in order and each
    jumps to the continuation.  Weights select cases at run time. *)

val call : pb -> ?insns:int -> Ba_ir.Term.proc_id -> region
(** A block performing a direct call, continuing afterwards. *)

val vcall : pb -> ?insns:int -> (Ba_ir.Term.proc_id * float) list -> region
(** An indirect (virtual-dispatch) call with weighted receivers. *)
