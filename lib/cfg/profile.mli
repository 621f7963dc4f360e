(** Execution profiles.

    A profile records, per basic block, how often the block executed and how
    its terminator resolved.  Profiles are collected at the *semantic* level
    (condition held / failed, switch case index), so the same profile
    describes the program under any code layout — exactly the property the
    alignment algorithms need, since they consume a profile gathered on the
    original layout and produce a new layout.

    The counters are mutable and updated by the interpreter
    ([Ba_exec.Engine]); everything else reads them. *)

type t

val create : Ba_ir.Program.t -> t
(** Fresh all-zero profile shaped like the program. *)

val program : t -> Ba_ir.Program.t

(** {1 Recording} *)

val record_visit : t -> Ba_ir.Term.proc_id -> Ba_ir.Term.block_id -> unit
val record_cond : t -> Ba_ir.Term.proc_id -> Ba_ir.Term.block_id -> bool -> unit

val record_switch : t -> Ba_ir.Term.proc_id -> Ba_ir.Term.block_id -> int -> unit
(** The [int] is the index into the switch's target array. *)

(** {1 Queries} *)

val visits : t -> Ba_ir.Term.proc_id -> Ba_ir.Term.block_id -> int

val cond_counts : t -> Ba_ir.Term.proc_id -> Ba_ir.Term.block_id -> int * int
(** [(times condition held, times it failed)].  Raises [Invalid_argument] if
    the block is not a conditional. *)

val switch_counts : t -> Ba_ir.Term.proc_id -> Ba_ir.Term.block_id -> int array
(** Per-case resolution counts of a switch block, indexed like its target
    array.  Raises [Invalid_argument] if the block is not a switch. *)

val edge_weight : t -> Ba_ir.Term.proc_id -> Edge.t -> int
(** Traversal count of one edge.  [Flow] edges are traversed once per block
    visit; [Case] edges use the recorded per-case counts. *)

val alignable_edges :
  t -> Ba_ir.Term.proc_id -> (Edge.t * int) list
(** The procedure's alignable edges paired with their weights, sorted by
    decreasing weight (ties broken by edge order, so the result is
    deterministic).  This is the worklist all three alignment algorithms
    start from. *)

val likely_taken : t -> Ba_ir.Term.proc_id -> Ba_ir.Term.block_id -> bool
(** Profile-majority direction of a conditional: [true] if the condition
    held at least as often as not.  Used to set the LIKELY architecture's
    branch hint bits, as with profile-driven compilation. *)

val merge : t list -> t
(** Combine profiles of the {e same} program (e.g. several training inputs,
    §4: "If more profiles are used or combined for a program ...") by
    summing all counters.  Raises [Invalid_argument] on an empty list or on
    profiles of different programs. *)
