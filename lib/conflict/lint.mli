(** Conflict findings as lint diagnostics.

    Every rule is {!Ba_analysis.Diagnostic.Info}: a conflict is a
    performance fact about a layout, not a correctness defect.  To keep
    the lint signal readable, indexed-structure rules fire only on
    conflicts whose weight is at least 5% of the structure's total weight
    ("hot" conflicts); the [analyze] subcommand reports the full list.

    Rules:
    - [conflict/pht-hot-pair] — a PHT counter or local-history register
      shared by hot conditionals (destructive when their majority
      directions oppose);
    - [conflict/btb-set-pressure] — a BTB set whose hot allocating sites
      exceed its ways;
    - [conflict/ras-depth] — the static call-chain bound exceeds the
      return stack depth, or recursion makes it unbounded;
    - [conflict/icache-hot-line] — an instruction-cache set thrashed by
      more hot lines than ways;
    - [conflict/alpha-line-sharing] — an Alpha history line shared by
      conditionals from distinct cache lines, which refill over each
      other's history bits. *)

val check :
  ?suite:Structure.t list ->
  profile:Ba_cfg.Profile.t ->
  Ba_layout.Image.t ->
  Ba_analysis.Diagnostic.t list
(** Analyze the image and convert hot conflicts to diagnostics, in
    {!Ba_analysis.Diagnostic.sort} order. *)
