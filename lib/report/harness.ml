open Ba_core
open Ba_sim

type arch_cpis = {
  fallthrough : float;
  btfnt : float;
  likely : float;
  pht_direct : float;
  gshare : float;
  btb64 : float;
  btb256 : float;
}

type eval = {
  workload : Ba_workloads.Spec.t;
  orig_insns : int;
  stats : Ba_exec.Trace_stats.summary;
  orig : arch_cpis;
  greedy : arch_cpis;
  exttsp : arch_cpis;
  try15 : arch_cpis;
  anneal : arch_cpis;
  pct_ft_orig : float;
  pct_ft_greedy : float;
  pct_ft_try15_ft : float;
  pct_ft_try15_btfnt : float;
  pct_ft_try15_likely : float;
  alpha : (float * float * float) option;
}

(* The paper's simulated configurations (§3): 4096-entry PHTs (1 KB of
   2-bit counters), a 12-bit global history for the correlation PHT, a
   64-entry 2-way and a 256-entry 4-way BTB. *)
let pht_direct_arch = Bep.Pht_direct { entries = 4096 }
let gshare_arch = Bep.Pht_gshare { entries = 4096; history_bits = 12 }
let btb64_arch = Bep.Btb_arch { entries = 64; assoc = 2 }
let btb256_arch = Bep.Btb_arch { entries = 256; assoc = 4 }

(* Run one image against a list of architectures, where LIKELY bits are
   derived from the image itself (profile-guided hints follow the rewritten
   binary, as re-annotating after transformation would). *)
let run_image ~max_steps ~profile ~trace ~archs image =
  let archs =
    List.map
      (function
        | `Likely -> Bep.Static_likely (Ba_predict.Likely_bits.build image profile)
        | `Arch a -> a)
      archs
  in
  Runner.simulate ~max_steps ~trace ~archs image

let cpi outcome ~orig_insns arch_index =
  let _, sim = outcome.Runner.sims.(arch_index) in
  Bep.relative_cpi sim ~insns:outcome.Runner.result.Ba_exec.Engine.insns ~orig_insns

(* Each architectural cost model with the simulated architectures it is
   judged on; concatenated, the lists are [full_archs] in column order. *)
let model_archs =
  [
    (Cost_model.Fallthrough, [ `Arch Bep.Static_fallthrough ]);
    (Cost_model.Btfnt, [ `Arch Bep.Static_btfnt ]);
    (Cost_model.Likely, [ `Likely ]);
    (Cost_model.Pht, [ `Arch pht_direct_arch; `Arch gshare_arch ]);
    (Cost_model.Btb, [ `Arch btb64_arch; `Arch btb256_arch ]);
  ]

let full_archs = List.concat_map snd model_archs

let cpis_of_list = function
  | [ fallthrough; btfnt; likely; pht_direct; gshare; btb64; btb256 ] ->
    { fallthrough; btfnt; likely; pht_direct; gshare; btb64; btb256 }
  | _ -> invalid_arg "Harness.cpis_of_list: one figure per architecture"

let cpis_of_outcomes outcomes ~orig_insns =
  cpis_of_list
    (List.concat_map
       (fun out -> List.init (Array.length out.Runner.sims) (cpi out ~orig_insns))
       outcomes)

(* One image per architectural cost model, each run against that model's
   architectures: the per-model figures, plus each model's image and
   outcome for the trace statistics and Figure 4. *)
let per_model ~run_image ~orig_insns image_of =
  let runs =
    List.map
      (fun (model, archs) ->
        let image = image_of model in
        (model, (image, run_image ~archs image)))
      model_archs
  in
  ( cpis_of_outcomes (List.map (fun (_, (_, out)) -> out) runs) ~orig_insns,
    fun model -> List.assoc model runs )

let evaluate ?max_steps (workload : Ba_workloads.Spec.t) =
  let max_steps =
    match max_steps with Some s -> s | None -> Ba_workloads.Spec.default_max_steps
  in
  (* Record once, replay many: the single memoized interpreter pass yields
     the profile and the semantic trace, and every image below — original
     included — replays that trace instead of re-interpreting. *)
  let program, profile, trace = Ba_workloads.Profiled.get_traced ~max_steps workload in
  let run_image = run_image ~max_steps ~profile ~trace in
  let orig_image = Ba_layout.Image.original ~profile program in
  let orig_out = run_image ~archs:full_archs orig_image in
  let orig_insns = orig_out.Runner.result.Ba_exec.Engine.insns in
  let cpis_of_full out = cpis_of_outcomes [ out ] ~orig_insns in
  let greedy_image = Align.image Align.Greedy profile in
  let greedy_out = run_image ~archs:full_archs greedy_image in
  (* As in §6.1, layouts evaluated on BT/FNT use the Pettis & Hansen
     precedence chain ordering; everything else uses weight-descending. *)
  let greedy_btfnt_image =
    Align.image Align.Greedy ~strategy:Ba_layout.Chain_order.Btfnt_precedence profile
  in
  let greedy_btfnt_out =
    run_image ~archs:[ `Arch Bep.Static_btfnt ] greedy_btfnt_image
  in
  (* ExtTSP is architecture-oblivious like Greedy: one image, all seven
     simulated architectures. *)
  let exttsp_image = Align.image Align.ExtTsp profile in
  let exttsp_out = run_image ~archs:full_archs exttsp_image in
  let try15, try15_run =
    per_model ~run_image ~orig_insns (function
      | Cost_model.Btfnt ->
        (* Two refinement rounds: the second pass knows the first layout's
           real branch directions, which only BT/FNT cares about. *)
        Align.image (Align.Tryn 15) ~strategy:Ba_layout.Chain_order.Btfnt_precedence
          ~arch:Cost_model.Btfnt ~refine_rounds:2 profile
      | arch -> Align.image (Align.Tryn 15) ~arch profile)
  in
  (* Seed 0 and a fixed schedule: the Anneal column is byte-identical
     across runs and at any [-j]. *)
  let anneal, _ =
    per_model ~run_image ~orig_insns (fun arch -> Ba_delta.Anneal.image ~arch profile)
  in
  let pct_ft model =
    Ba_exec.Trace_stats.pct_cond_fallthrough (snd (try15_run model)).Runner.stats
  in
  let alpha =
    if List.mem workload.Ba_workloads.Spec.name Ba_workloads.Spec.spec_c_programs then begin
      (* Numeric programs carry a high floating-point share, which pairs
         with integer-pipe work on the dual-issue 21064. *)
      let fp_fraction =
        match workload.Ba_workloads.Spec.cls with
        | Ba_workloads.Spec.Fp -> 0.5
        | Ba_workloads.Spec.Int | Ba_workloads.Spec.Other -> 0.08
      in
      let run_alpha image =
        let result, alpha = Runner.simulate_alpha ~max_steps ~fp_fraction ~trace image in
        Alpha.cycles alpha ~insns:result.Ba_exec.Engine.insns
      in
      let orig_cycles = run_alpha orig_image in
      let greedy_cycles = run_alpha greedy_image in
      let try15_cycles = run_alpha (fst (try15_run Cost_model.Btb)) in
      Some (1.0, greedy_cycles /. orig_cycles, try15_cycles /. orig_cycles)
    end
    else None
  in
  {
    workload;
    orig_insns;
    stats =
      Ba_exec.Trace_stats.summarize orig_out.Runner.stats ~program ~insns:orig_insns;
    orig = cpis_of_full orig_out;
    greedy =
      { (cpis_of_full greedy_out) with btfnt = cpi greedy_btfnt_out ~orig_insns 0 };
    exttsp = cpis_of_full exttsp_out;
    try15;
    anneal;
    pct_ft_orig = Ba_exec.Trace_stats.pct_cond_fallthrough orig_out.Runner.stats;
    pct_ft_greedy = Ba_exec.Trace_stats.pct_cond_fallthrough greedy_out.Runner.stats;
    pct_ft_try15_ft = pct_ft Cost_model.Fallthrough;
    pct_ft_try15_btfnt = pct_ft Cost_model.Btfnt;
    pct_ft_try15_likely = pct_ft Cost_model.Likely;
    alpha;
  }

let evaluate_suite ?max_steps ?jobs workloads =
  Ba_par.Pool.with_pool ?jobs (fun pool ->
      Ba_par.Pool.map pool (evaluate ?max_steps) workloads)

let evaluate_suite_timed ?max_steps ?jobs workloads =
  Ba_par.Pool.with_pool ?jobs (fun pool ->
      Ba_par.Pool.timed_map pool ~label:"evaluate_suite"
        ~task_label:(fun (w : Ba_workloads.Spec.t) -> w.Ba_workloads.Spec.name)
        (evaluate ?max_steps) workloads)

let class_groups evals =
  let group cls =
    List.filter (fun e -> e.workload.Ba_workloads.Spec.cls = cls) evals
  in
  List.filter_map
    (fun cls ->
      match group cls with
      | [] -> None
      | es -> Some (Ba_workloads.Spec.cls_name cls, es))
    [ Ba_workloads.Spec.Fp; Ba_workloads.Spec.Int; Ba_workloads.Spec.Other ]
