open Ba_analysis

(* The gap-too-wide heat thresholds: an interval is uninformative when the
   upper bound at least doubles the lower AND the absolute width could hide
   a whole alignment algorithm's worth of cycles. *)
let wide_ratio = 2
let wide_cycles = 64

let all_algos =
  [ Ba_core.Align.Original; Ba_core.Align.Greedy; Ba_core.Align.Cost;
    Ba_core.Align.Tryn 15 ]

let check ~algo ~arch ~profile image =
  let program = image.Ba_layout.Image.program in
  let spec = Ba_delta.Eval.spec_of_model arch in
  let sim_arch = Ba_delta.Eval.to_arch spec ~image ~profile in
  let this = Analyze.bounds ~arch:sim_arch ~profile image in
  let label = Ba_sim.Bep.arch_label sim_arch in
  let wide =
    let lo = this.Domain.lo and hi = this.Domain.hi in
    if hi >= wide_ratio * max lo 1 && hi - lo >= wide_cycles then
      [
        Diagnostic.make Diagnostic.Info ~rule:"bound/gap-too-wide"
          ~loc:Diagnostic.Program
          "%s: penalty interval [%d, %d] is uninformative (width %d >= %dx \
           the lower bound)"
          label lo hi (hi - lo) wide_ratio;
      ]
    else []
  in
  (* Another algorithm whose upper bound beats this layout's lower bound
     certifies suboptimality without a single simulation. *)
  let suboptimal =
    List.filter_map
      (fun other ->
        if other = algo then None
        else begin
          let decisions = Ba_core.Align.align_program other ~arch profile in
          let image' = Ba_layout.Image.build ~profile program decisions in
          let other_arch = Ba_delta.Eval.to_arch spec ~image:image' ~profile in
          let b = Analyze.bounds ~arch:other_arch ~profile image' in
          if b.Domain.hi < this.Domain.lo then
            Some
              (Diagnostic.make Diagnostic.Info ~rule:"bound/provably-suboptimal"
                 ~loc:Diagnostic.Program
                 "%s: provably suboptimal — %s's upper bound %d beats this \
                  layout's lower bound %d (certified %d+ cycles away)"
                 label
                 (Ba_core.Align.algo_name other)
                 b.Domain.hi this.Domain.lo
                 (this.Domain.lo - b.Domain.hi))
          else None
        end)
      all_algos
  in
  Diagnostic.sort (wide @ suboptimal)
