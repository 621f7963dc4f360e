(* Ba_serve.Handler's request bodies, call for call, with a span around
   each call into a layer.  The traced serve run answers its requests
   here and checks every body against the expected digest, so the mirror
   cannot drift from the handler unnoticed. *)

open Ba_util

type counts = {
  mutable record_steps : int;
  mutable record_bytes : int;
  mutable sims : Paper.sim_call list;
  mutable response_bytes : int;
}

(* The architectures every simulate response reports after LIKELY (the
   handler's own list). *)
let bep_archs =
  [
    Ba_sim.Bep.Static_fallthrough;
    Ba_sim.Bep.Static_btfnt;
    Ba_sim.Bep.Pht_direct { entries = 4096 };
    Ba_sim.Bep.Pht_gshare { entries = 4096; history_bits = 12 };
    Ba_sim.Bep.Btb_arch { entries = 256; assoc = 4 };
  ]

let counts () = { record_steps = 0; record_bytes = 0; sims = []; response_bytes = 0 }

(* A Profiled lookup is an LRU hit, or a miss that records the trace. *)
let profiled sp k ~max_steps w =
  Span.with_ sp "lru" (fun () ->
      let m0 = (Ba_workloads.Profiled.lru_stats ()).Ba_par.Lru.misses in
      let ((_, _, trace) as r) = Ba_workloads.Profiled.get_traced ~max_steps w in
      if (Ba_workloads.Profiled.lru_stats ()).Ba_par.Lru.misses > m0 then begin
        Span.retitle sp "record";
        k.record_steps <- k.record_steps + trace.Ba_trace.Trace.steps;
        k.record_bytes <- k.record_bytes + Ba_trace.Trace.byte_size trace
      end;
      r)

let image sp ~algo ~arch program profile =
  match algo with
  | Ba_core.Align.Original -> Span.with_ sp "lower" (fun () -> Ba_layout.Image.original ~profile program)
  | a ->
    let d = Span.with_ sp "align" (fun () -> Ba_core.Align.align_program a ~arch profile) in
    Span.with_ sp "lower" (fun () -> Ba_layout.Image.build ~profile program d)

let align_body sp k ~w ~algo ~arch ~max_steps =
  let program, profile, trace = profiled sp k ~max_steps w in
  let n = Ba_ir.Program.n_procs program in
  let decisions =
    Span.with_ sp "align" (fun () ->
        match algo with
        | Ba_core.Align.Original -> Array.init n (fun p -> Ba_layout.Decision.identity (Ba_ir.Program.proc program p))
        | a -> Ba_core.Align.align_program a ~arch profile)
  in
  let total = ref 0.0 in
  let procs =
    List.init n (fun p ->
        let proc = Ba_ir.Program.proc program p in
        let d = decisions.(p) in
        let cost =
          Span.with_ sp "delta.model" (fun () ->
              Ba_delta.Model.total
                (Ba_delta.Model.create ~arch
                   ~visits:(fun b -> Ba_cfg.Profile.visits profile p b)
                   ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile p b)
                   proc d))
        in
        total := !total +. cost;
        let forced =
          let parts = ref [] in
          Array.iteri
            (fun b leg ->
              match leg with
              | Some l ->
                parts := Json.Obj [ ("block", Json.Int b); ("leg", Json.String (Ba_layout.Decision.leg_name l)) ] :: !parts
              | None -> ())
            d.Ba_layout.Decision.neither;
          List.rev !parts
        in
        Json.Obj
          [
            ("proc", Json.Int p);
            ("name", Json.String proc.Ba_ir.Proc.name);
            ("order", Json.List (List.map (fun b -> Json.Int b) (Array.to_list d.Ba_layout.Decision.order)));
            ("forced", Json.List forced);
            ("cost", Json.Float cost);
          ])
  in
  let spec = Ba_delta.Eval.spec_of_model arch in
  let ev = Span.with_ sp "delta.eval_create" (fun () -> Ba_delta.Eval.create ~specs:[| spec |] profile trace decisions) in
  let penalty = Span.with_ sp "delta.cost" (fun () -> Ba_delta.Eval.cost_arch ev 0 decisions) in
  Json.Obj
    [
      ("workload", Json.String w.Ba_workloads.Spec.name);
      ("algo", Json.String (Ba_core.Align.algo_name algo));
      ("arch", Json.String (Ba_core.Cost_model.arch_name arch));
      ("procs", Json.List procs);
      ("total_cost", Json.Float !total);
      ("penalty_model", Json.String (Ba_delta.Eval.spec_label spec));
      ("penalty_cycles", Json.Int penalty);
    ]

let simulate_body sp k ~w ~algo ~arch ~max_steps =
  let program, profile, trace = profiled sp k ~max_steps w in
  let img = image sp ~algo ~arch program profile in
  let archs =
    Ba_sim.Bep.Static_likely (Span.with_ sp "predict" (fun () -> Ba_predict.Likely_bits.build img profile))
    :: bep_archs
  in
  let t0 = Util.now_ns () in
  let out = Span.with_ sp "sim" (fun () -> Ba_sim.Runner.simulate ~max_steps ~trace ~archs img) in
  k.sims <-
    {
      Paper.dur_ns = Int64.sub (Util.now_ns ()) t0;
      events = out.Ba_sim.Runner.result.Ba_exec.Engine.branches;
      archs = List.map Paper.arch_key archs;
    }
    :: k.sims;
  let sims =
    List.map
      (fun (a, sim) ->
        let c = Ba_sim.Bep.counts sim in
        Json.Obj
          [
            ("label", Json.String (Ba_sim.Bep.arch_label a));
            ("accuracy", Json.Float (100.0 *. Ba_sim.Bep.cond_accuracy sim));
            ("misfetches", Json.Int c.Ba_sim.Bep.misfetches);
            ("mispredicts", Json.Int c.Ba_sim.Bep.mispredicts);
            ("bep_cycles", Json.Int (Ba_sim.Bep.bep sim));
          ])
      (Array.to_list out.Ba_sim.Runner.sims)
  in
  Json.Obj
    [
      ("workload", Json.String w.Ba_workloads.Spec.name);
      ("algo", Json.String (Ba_core.Align.algo_name algo));
      ("arch", Json.String (Ba_core.Cost_model.arch_name arch));
      ("branches", Json.Int out.Ba_sim.Runner.result.Ba_exec.Engine.branches);
      ("insns", Json.Int out.Ba_sim.Runner.result.Ba_exec.Engine.insns);
      ("architectures", Json.List sims);
    ]

let verify_body sp k ~w ~algo ~arch ~max_steps =
  let program, profile, trace = profiled sp k ~max_steps w in
  let result, diags =
    Span.with_ sp "verify" (fun () ->
        let r = Ba_verify.Run.verify_pipeline ~arch ~max_steps ~profile ~trace ~audit:true ~algo program in
        (r, Ba_verify.Run.diagnostics r))
  in
  let e, warn, i = Ba_analysis.Diagnostic.count diags in
  Json.Obj
    [
      ("workload", Json.String w.Ba_workloads.Spec.name);
      ("algo", Json.String (Ba_core.Align.algo_name algo));
      ("arch", Json.String (Ba_core.Cost_model.arch_name arch));
      ("verified", Json.Bool result.Ba_verify.Run.verified);
      ("errors", Json.Int e);
      ("warnings", Json.Int warn);
      ("infos", Json.Int i);
      ("certificates", Json.List (List.map Ba_verify.Certificate.to_json result.Ba_verify.Run.certificates));
      ("diagnostics", Json.List (List.map Ba_analysis.Diagnostic.to_json diags));
    ]

let analyze_body sp k ~w ~algo ~arch ~max_steps =
  let program, profile, _ = profiled sp k ~max_steps w in
  let img = image sp ~algo ~arch program profile in
  let objective, reports =
    Span.with_ sp "analyze" (fun () ->
        let r = Ba_conflict.Analyze.analyze ~profile img in
        (Ba_conflict.Analyze.objective r, Ba_conflict.Analyze.to_json r))
  in
  Json.Obj
    [
      ("workload", Json.String w.Ba_workloads.Spec.name);
      ("algo", Json.String (Ba_core.Align.algo_name algo));
      ("arch", Json.String (Ba_core.Cost_model.arch_name arch));
      ("objective", Json.Int objective);
      ("reports", reports);
    ]

(* Answer one request; returns the body's digest.  The response is
   encoded and decoded as the server and the client would. *)
let handle sp k ~id (r : Reqs.t) =
  Span.with_ sp "handler" (fun () ->
      let w = Option.get (Ba_workloads.Spec.by_name r.Reqs.workload) in
      let algo = Result.get_ok (Ba_core.Align.algo_of_name r.Reqs.algo) in
      let arch = Result.get_ok (Ba_core.Cost_model.arch_of_name r.Reqs.arch) in
      let max_steps = r.Reqs.steps in
      let body =
        match r.Reqs.kind with
        | Ba_serve.Protocol.Align -> align_body sp k ~w ~algo ~arch ~max_steps
        | Ba_serve.Protocol.Simulate -> simulate_body sp k ~w ~algo ~arch ~max_steps
        | Ba_serve.Protocol.Verify -> verify_body sp k ~w ~algo ~arch ~max_steps
        | _ -> analyze_body sp k ~w ~algo ~arch ~max_steps
      in
      let payload =
        Span.with_ sp "json.encode" (fun () ->
            Json.to_string (Ba_serve.Protocol.response_to_json { Ba_serve.Protocol.rid = id; status = Ok_; body }))
      in
      k.response_bytes <- k.response_bytes + String.length payload;
      let decoded = Span.with_ sp "json.decode" (fun () -> Json.parse payload) in
      match Result.bind decoded Ba_serve.Protocol.response_of_json with
      | Ok resp -> Reqs.body_digest resp.Ba_serve.Protocol.body
      | Error e -> failwith e)
