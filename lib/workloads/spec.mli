(** The workload suite: synthetic stand-ins for the 24 programs of the
    paper's Table 2 (13 SPECfp92, 6 SPECint92, 5 "Other" C++/text
    programs).

    Each workload is a deterministic program built with {!Builder} whose
    control-flow character — break density, taken rate, branch-site
    concentration, break-kind mix, call-graph shape — mimics its namesake's
    published signature.  Absolute instruction counts are scaled down from
    billions to millions; the alignment algorithms and predictors only see
    CFG structure and branch statistics, which are preserved.  (Substitution
    documented in DESIGN.md.) *)

type cls = Fp | Int | Other

val cls_name : cls -> string

val fp_fraction : cls -> float
(** Floating-point share of the class's instruction mix, as
    {!Ba_isa.Codegen} materialises it for the dual-issue 21064 model and
    the disassembler: numeric programs pair FP work with the integer
    pipe. *)

type t = {
  name : string;
  cls : cls;
  description : string;  (** what the original program does and which
                              control-flow signature we imitate *)
  build : unit -> Ba_ir.Program.t;
}

val all : t list
(** The 24 workloads in the paper's Table 2 order (FP, then INT, then
    Other). *)

val by_name : string -> t option

val spec_c_programs : string list
(** The eight SPEC92 C programs of Figure 4: alvinn, ear, compress,
    eqntott, espresso, gcc, li, sc. *)

val default_max_steps : int
(** Execution budget (semantic block visits) used by the experiment
    harness; large enough that every workload runs to completion. *)

val max_steps_of_string : string -> (int, string) result
(** Parse a command-line budget: a positive integer.  Zero, negative and
    non-numeric values are errors, as they are in a served request. *)
