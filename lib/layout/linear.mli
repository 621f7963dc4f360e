(** Laid-out ("linear") procedure code.

    This is the output of lowering a block permutation: an array of layout
    blocks in final order, with every control transfer resolved to a layout
    position and every needed branch instruction made explicit.  It is what
    the interpreter executes and what addresses are assigned to.

    Instruction accounting: addresses count instructions (one address unit
    per instruction).  A layout block occupies its straight-line
    instructions, then its terminator's branch instruction(s), if any. *)

type cont = Fall | Jump_to of int
(** How control continues after a call returns: straight to the next layout
    block, or through an inserted unconditional jump. *)

type lterm =
  | Lnone  (** pure fall-through; no branch instruction *)
  | Ljump of int  (** unconditional branch to a layout position *)
  | Lcond of { taken_pos : int; taken_on : bool; inserted_jump : int option }
      (** conditional branch: when the semantic outcome equals [taken_on]
          the branch is taken to [taken_pos]; otherwise control falls
          through — either to the next layout block, or (the paper's "align
          neither edge" case) to an inserted unconditional jump targeting
          [inserted_jump]. *)
  | Lswitch of { positions : int array; weights : float array }
      (** indirect jump; target chosen by weighted draw at run time *)
  | Lcall of { callee : Ba_ir.Term.proc_id; cont : cont }
  | Lvcall of { callees : Ba_ir.Term.proc_id array; weights : float array; cont : cont }
  | Lret
  | Lhalt

type lblock = {
  src : Ba_ir.Term.block_id;  (** originating semantic block *)
  insns : int;  (** straight-line instructions *)
  term : lterm;
  mutable addr : int;  (** absolute address; assigned by {!Image.build} *)
}

type t = { proc : Ba_ir.Proc.t; decision : Decision.t; blocks : lblock array }

val block_size : lblock -> int
(** Total instructions the layout block occupies, branch instruction(s)
    included. *)

val code_size : t -> int

val falls_through : lblock -> bool
(** Can control reach the next layout position implicitly, without a
    branch instruction?  True for [Lnone], a conditional without an
    inserted jump, and call continuations lowered to [Fall].  The
    inter-procedural splitter ({!Image.build_interproc}) may only open an
    address gap after a block where this is [false]. *)

val static_successors : t -> int -> int list
(** Layout positions control can transfer to from the block at the given
    position, derived from the lowered terminator alone (fall-throughs,
    branch targets, inserted jumps; call continuations but not callees).
    Out-of-range targets are silently dropped — callers validating
    structure must range-check separately.  Sorted, without duplicates. *)

val branch_pc : lblock -> int
(** Address of the terminator's (first) branch instruction.  Meaningless for
    [Lnone]/[Lhalt]. *)

val inserted_jump_pc : lblock -> int
(** Address of the inserted unconditional jump of an [Lcond] with
    [inserted_jump], or of a call continuation jump. *)

val validate : t -> (unit, string) result
(** Structural invariants: positions in range; the source permutation is the
    decision's; no block falls off the end of the procedure; fall-through
    consistency between [lterm]s and the semantic CFG. *)

val pp : Format.formatter -> t -> unit
