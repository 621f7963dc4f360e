(* The [tables] workload: the full `experiments all` output at the default
   budget over the 24-program suite.

   Set-up builds the programs and records their traces through
   Ba_workloads.Profiled.  A pass then evaluates every program with
   Ba_report.Harness.evaluate_suite and Ba_report.Interproc.evaluate_suite
   and renders what `experiments all` prints. *)

open Ba_sim

let suite = Ba_workloads.Spec.all
let max_steps = Ba_workloads.Spec.default_max_steps

let record_suite ?sp ?(max_steps = max_steps) ~jobs () =
  Ba_workloads.Profiled.clear ();
  Ba_par.Pool.with_pool ~jobs (fun pool ->
      ignore
        (Ba_par.Pool.map pool
           (fun w ->
             Span.with_ sp "record" (fun () -> ignore (Ba_workloads.Profiled.get_traced ~max_steps w)))
           suite))

(* Exactly the text `experiments all` writes to stdout. *)
let render evals rows =
  let b = Buffer.create 65536 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line "== Table 1: branch cost model (cycles) ==";
  Buffer.add_string b (Ba_report.Tables.table1 ());
  line "\n== Table 2: measured attributes of the traced programs ==";
  Buffer.add_string b (Ba_report.Tables.table2 evals);
  line "\n== Table 3: relative CPI, static prediction architectures ==";
  Buffer.add_string b (Ba_report.Tables.table3 evals);
  line "\n== Table 4: relative CPI, dynamic prediction architectures ==";
  Buffer.add_string b (Ba_report.Tables.table4 evals);
  line "\n== Figure 4: relative execution time, Alpha 21064 model ==";
  Buffer.add_string b (Ba_report.Tables.fig4 evals);
  line "\n== Inter-procedural layout: penalty cycles, plain>stitched (ExtTsp) ==";
  Buffer.add_string b (Ba_report.Interproc.render rows);
  Buffer.contents b

type pass = { output : string; wall_s : float; cpu_s : float }

(* One untraced pass: `experiments all` through the same entry points. *)
let pass ?(max_steps = max_steps) ~jobs () =
  let t0 = Util.now_ns () and c0 = Util.self_cpu_s () in
  let evals = Ba_report.Harness.evaluate_suite ~max_steps ~jobs suite in
  let rows = Ba_report.Interproc.evaluate_suite ~max_steps ~jobs suite in
  let output = render evals rows in
  { output; wall_s = Util.seconds_since t0; cpu_s = Util.self_cpu_s () -. c0 }

(* -- the traced pass ------------------------------------------------------- *)

(* Every simulation the traced pass ran: its duration, the events it
   replayed and the architectures it fed them to.  The replay/predictor
   split of each one comes from the probe's per-event costs. *)
type sim_call = { dur_ns : int64; events : int; archs : string list }

let arch_key = function
  | Bep.Static_fallthrough -> "fallthrough"
  | Bep.Static_btfnt -> "btfnt"
  | Bep.Static_likely _ -> "likely"
  | Bep.Pht_direct _ -> "pht"
  | Bep.Pht_gshare _ -> "gshare"
  | Bep.Btb_arch { entries = 64; _ } -> "btb64"
  | Bep.Btb_arch _ -> "btb256"
  | Bep.Pht_global _ | Bep.Pht_local _ -> "other"

let simulate sp sims ~trace ~archs image =
  let t0 = Util.now_ns () in
  let out = Span.with_ sp "sim" (fun () -> Runner.simulate ~max_steps ~trace ~archs image) in
  sims :=
    {
      dur_ns = Int64.sub (Util.now_ns ()) t0;
      events = out.Runner.result.Ba_exec.Engine.branches;
      archs = List.map arch_key archs;
    }
    :: !sims;
  out

(* Ba_report.Harness.evaluate, call for call, with a span around each call
   into a layer.  The result renders to the same tables; the traced run
   checks that it does. *)
let evaluate_traced sp sims (workload : Ba_workloads.Spec.t) : Ba_report.Harness.eval =
  let sp = Some sp in
  let program, profile, trace =
    Span.with_ sp "lru" (fun () -> Ba_workloads.Profiled.get_traced ~max_steps workload)
  in
  let run_image ~archs image =
    let archs =
      List.map
        (function
          | `Likely ->
            Bep.Static_likely
              (Span.with_ sp "predict" (fun () -> Ba_predict.Likely_bits.build image profile))
          | `Arch a -> a)
        archs
    in
    simulate sp sims ~trace ~archs image
  in
  let lower decisions = Span.with_ sp "lower" (fun () -> Ba_layout.Image.build ~profile program decisions) in
  let image algo ?strategy ?arch ?refine_rounds () =
    lower
      (Span.with_ sp "align" (fun () ->
           Ba_core.Align.align_program algo ?strategy ?arch ?refine_rounds profile))
  in
  let anneal_image arch =
    lower (Span.with_ sp "anneal" (fun () -> Ba_delta.Anneal.align_program ~arch profile))
  in
  let cpi out ~orig_insns i =
    let _, sim = out.Runner.sims.(i) in
    Bep.relative_cpi sim ~insns:out.Runner.result.Ba_exec.Engine.insns ~orig_insns
  in
  let cpis out ~orig_insns =
    let c = cpi out ~orig_insns in
    {
      Ba_report.Harness.fallthrough = c 0;
      btfnt = c 1;
      likely = c 2;
      pht_direct = c 3;
      gshare = c 4;
      btb64 = c 5;
      btb256 = c 6;
    }
  in
  let full = Ba_report.Harness.full_archs in
  let pht = Bep.Pht_direct { entries = 4096 } and gshare = Bep.Pht_gshare { entries = 4096; history_bits = 12 } in
  let btb64 = Bep.Btb_arch { entries = 64; assoc = 2 } and btb256 = Bep.Btb_arch { entries = 256; assoc = 4 } in
  let orig_image = Span.with_ sp "lower" (fun () -> Ba_layout.Image.original ~profile program) in
  let orig_out = run_image ~archs:full orig_image in
  let orig_insns = orig_out.Runner.result.Ba_exec.Engine.insns in
  let greedy_image = image Ba_core.Align.Greedy () in
  let greedy_out = run_image ~archs:full greedy_image in
  let greedy_btfnt_out =
    run_image ~archs:[ `Arch Bep.Static_btfnt ]
      (image Ba_core.Align.Greedy ~strategy:Ba_layout.Chain_order.Btfnt_precedence ())
  in
  let exttsp_out = run_image ~archs:full (image Ba_core.Align.ExtTsp ()) in
  let t15 = Ba_core.Align.Tryn 15 in
  let module C = Ba_core.Cost_model in
  let t15_ft = run_image ~archs:[ `Arch Bep.Static_fallthrough ] (image t15 ~arch:C.Fallthrough ()) in
  let t15_btfnt =
    run_image ~archs:[ `Arch Bep.Static_btfnt ]
      (image t15 ~strategy:Ba_layout.Chain_order.Btfnt_precedence ~arch:C.Btfnt ~refine_rounds:2 ())
  in
  let t15_likely = run_image ~archs:[ `Likely ] (image t15 ~arch:C.Likely ()) in
  let t15_pht = run_image ~archs:[ `Arch pht; `Arch gshare ] (image t15 ~arch:C.Pht ()) in
  let t15_btb_img = image t15 ~arch:C.Btb () in
  let t15_btb = run_image ~archs:[ `Arch btb64; `Arch btb256 ] t15_btb_img in
  let per_model ft btfnt likely pht btb =
    {
      Ba_report.Harness.fallthrough = cpi ft ~orig_insns 0;
      btfnt = cpi btfnt ~orig_insns 0;
      likely = cpi likely ~orig_insns 0;
      pht_direct = cpi pht ~orig_insns 0;
      gshare = cpi pht ~orig_insns 1;
      btb64 = cpi btb ~orig_insns 0;
      btb256 = cpi btb ~orig_insns 1;
    }
  in
  let an_ft = run_image ~archs:[ `Arch Bep.Static_fallthrough ] (anneal_image C.Fallthrough) in
  let an_btfnt = run_image ~archs:[ `Arch Bep.Static_btfnt ] (anneal_image C.Btfnt) in
  let an_likely = run_image ~archs:[ `Likely ] (anneal_image C.Likely) in
  let an_pht = run_image ~archs:[ `Arch pht; `Arch gshare ] (anneal_image C.Pht) in
  let an_btb = run_image ~archs:[ `Arch btb64; `Arch btb256 ] (anneal_image C.Btb) in
  let alpha =
    if List.mem workload.Ba_workloads.Spec.name Ba_workloads.Spec.spec_c_programs then begin
      let fp_fraction =
        match workload.Ba_workloads.Spec.cls with
        | Ba_workloads.Spec.Fp -> 0.5
        | Ba_workloads.Spec.Int | Ba_workloads.Spec.Other -> 0.08
      in
      let run_alpha img =
        let result, alpha =
          Span.with_ sp "sim.alpha" (fun () -> Runner.simulate_alpha ~max_steps ~fp_fraction ~trace img)
        in
        Alpha.cycles alpha ~insns:result.Ba_exec.Engine.insns
      in
      let o = run_alpha orig_image in
      let g = run_alpha greedy_image in
      let t = run_alpha t15_btb_img in
      Some (1.0, g /. o, t /. o)
    end
    else None
  in
  Span.with_ sp "stats" (fun () ->
      let pct o = Ba_exec.Trace_stats.pct_cond_fallthrough o.Runner.stats in
      {
        Ba_report.Harness.workload;
        orig_insns;
        stats = Ba_exec.Trace_stats.summarize orig_out.Runner.stats ~program ~insns:orig_insns;
        orig = cpis orig_out ~orig_insns;
        greedy = { (cpis greedy_out ~orig_insns) with btfnt = cpi greedy_btfnt_out ~orig_insns 0 };
        exttsp = cpis exttsp_out ~orig_insns;
        try15 = per_model t15_ft t15_btfnt t15_likely t15_pht t15_btb;
        anneal = per_model an_ft an_btfnt an_likely an_pht an_btb;
        pct_ft_orig = pct orig_out;
        pct_ft_greedy = pct greedy_out;
        pct_ft_try15_ft = pct t15_ft;
        pct_ft_try15_btfnt = pct t15_btfnt;
        pct_ft_try15_likely = pct t15_likely;
        alpha;
      })

(* Ba_report.Interproc.evaluate, call for call, likewise. *)
let interproc_traced sp sims (workload : Ba_workloads.Spec.t) : Ba_report.Interproc.row =
  let sp = Some sp in
  Span.with_ sp "interproc" (fun () ->
      let program, profile, trace =
        Span.with_ sp "lru" (fun () -> Ba_workloads.Profiled.get_traced ~max_steps workload)
      in
      let n = Ba_ir.Program.n_procs program in
      let decisions = Span.with_ sp "align" (fun () -> Ba_core.Align.align_program Ba_core.Align.ExtTsp profile) in
      let plain_image = Span.with_ sp "lower" (fun () -> Ba_layout.Image.build ~profile program decisions) in
      let ip = Span.with_ sp "lower" (fun () -> Ba_layout.Image.build_interproc ~profile program decisions) in
      let split_procs = ref 0 in
      Array.iteri
        (fun p s -> if s < Ba_ir.Proc.n_blocks (Ba_ir.Program.proc program p) then incr split_procs)
        ip.Ba_layout.Image.splits;
      let stitched_image = ip.Ba_layout.Image.image in
      let verified =
        Span.with_ sp "verify" (fun () ->
            let bisim, certificates, cert_diags, _audit =
              Ba_verify.Run.verify_image ~audit:false ~trace ~workload:workload.Ba_workloads.Spec.name
                ~algo:(Ba_core.Align.algo_name Ba_core.Align.ExtTsp) ~profile stitched_image
            in
            let image_diags = Ba_analysis.Check_image.check stitched_image in
            bisim = [] && cert_diags = []
            && (not (List.exists Ba_analysis.Diagnostic.is_error image_diags))
            && certificates <> [])
      in
      (* Ba_report.Placement.penalties *)
      let penalties image =
        let archs =
          List.map
            (function
              | `Likely ->
                Bep.Static_likely (Span.with_ sp "predict" (fun () -> Ba_predict.Likely_bits.build image profile))
              | `Arch a -> a)
            Ba_report.Harness.full_archs
        in
        Array.map (fun (_, sim) -> Bep.bep sim) (simulate sp sims ~trace ~archs image).Runner.sims
      in
      {
        Ba_report.Interproc.workload;
        procs = n;
        split_procs = !split_procs;
        cold_insns = stitched_image.Ba_layout.Image.total_size - ip.Ba_layout.Image.hot_size;
        verified;
        plain = penalties plain_image;
        stitched = penalties stitched_image;
      })

(* The traced pass, on the calling domain alone. *)
let traced_pass sp sims =
  let t0 = Util.now_ns () in
  let evals = List.map (evaluate_traced sp sims) suite in
  let rows = List.map (interproc_traced sp sims) suite in
  let output = Span.with_ (Some sp) "report" (fun () -> render evals rows) in
  (output, rows, Util.seconds_since t0)
