(** Stage 1: deep IR lint.

    Goes beyond {!Ba_ir.Proc.validate} (which stops at the first fault) by
    reporting {e every} violation as a structured diagnostic, and adds
    rules [validate] does not know: degenerate self-jumps and jump-only
    cycles (control enters and can never branch out), dead switch cases and
    vcall callees, statically-constant conditionals, call-graph dangling
    references and call-graph-unreachable procedures.

    Rules: [ir/successor-range], [ir/cond-equal-targets],
    [ir/bad-behavior], [ir/switch-empty], [ir/switch-negative-weight],
    [ir/switch-all-zero], [ir/switch-dead-case],
    [ir/switch-duplicate-target], [ir/vcall-empty],
    [ir/vcall-negative-weight], [ir/vcall-all-zero],
    [ir/vcall-dead-callee], [ir/unreachable-block], [ir/self-jump],
    [ir/jump-cycle], [ir/cond-constant], [ir/dangling-callee],
    [ir/halt-outside-main], [ir/unreachable-proc]. *)

val check_program : Ba_ir.Program.t -> Diagnostic.t list
(** The intra-procedural rules on every procedure plus the
    inter-procedural rules (dangling callees, [Halt] outside main,
    call-graph reachability). *)
