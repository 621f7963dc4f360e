type algo = Core of Ba_core.Align.algo | Anneal

let algo_name = function
  | Core a -> Ba_core.Align.algo_name a
  | Anneal -> "anneal"

let algo_of_name = function
  | "anneal" -> Ok Anneal
  | s -> Result.map (fun a -> Core a) (Ba_core.Align.algo_of_name s)

type anneal = { seed : int; sweeps : int; pool : Ba_par.Pool.t option }

let inline_anneal =
  { seed = 0; sweeps = Ba_delta.Anneal.default_sweeps; pool = None }

(* Identity decisions for [Original] are built here rather than through
   [Align.align_program], which would open an [align] span per procedure. *)
let core_decisions algo ~arch profile =
  match algo with
  | Ba_core.Align.Original ->
    let program = Ba_cfg.Profile.program profile in
    Array.init (Ba_ir.Program.n_procs program) (fun p ->
        Ba_layout.Decision.identity (Ba_ir.Program.proc program p))
  | a -> Ba_core.Align.align_program a ~arch profile

let decisions ~anneal algo ~arch profile =
  match algo with
  | Core a -> core_decisions a ~arch profile
  | Anneal -> (
    let walk pid =
      Ba_delta.Anneal.align_proc ~seed:anneal.seed ~sweeps:anneal.sweeps ~arch
        profile pid
    in
    let n = Ba_ir.Program.n_procs (Ba_cfg.Profile.program profile) in
    match anneal.pool with
    | None -> Array.init n walk
    | Some pool -> Ba_par.Pool.map_array pool walk (Array.init n Fun.id))

let image algo ~arch profile =
  Ba_layout.Image.build ~profile
    (Ba_cfg.Profile.program profile)
    (core_decisions algo ~arch profile)

let replay_archs =
  [
    Ba_sim.Bep.Static_fallthrough;
    Ba_sim.Bep.Static_btfnt;
    Ba_sim.Bep.Pht_direct { entries = 4096 };
    Ba_sim.Bep.Pht_gshare { entries = 4096; history_bits = 12 };
    Ba_sim.Bep.Btb_arch { entries = 256; assoc = 4 };
  ]

let archs image profile =
  Ba_sim.Bep.Static_likely (Ba_predict.Likely_bits.build image profile)
  :: replay_archs

let simulate_image ~max_steps ~trace profile image =
  Ba_sim.Runner.simulate ~max_steps ~trace ~archs:(archs image profile) image

let simulate algo ~arch ~max_steps workload =
  let _program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps workload
  in
  simulate_image ~max_steps ~trace profile (image algo ~arch profile)

type proc_layout = {
  proc : int;
  name : string;
  order : int array;
  forced : (int * Ba_layout.Decision.jump_leg) list;
  cost : float;
}

type listing = {
  procs : proc_layout list;
  total_cost : float;
  penalty_model : string;
  penalty_cycles : int;
}

let align ~anneal algo ~arch ~max_steps workload =
  let program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps workload
  in
  let decisions = decisions ~anneal algo ~arch profile in
  let procs =
    List.init (Ba_ir.Program.n_procs program) (fun p ->
        let proc = Ba_ir.Program.proc program p in
        let d = decisions.(p) in
        let cost =
          Ba_delta.Model.total
            (Ba_delta.Model.create ~arch
               ~visits:(fun b -> Ba_cfg.Profile.visits profile p b)
               ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile p b)
               proc d)
        in
        let forced =
          List.filter_map Fun.id
            (List.mapi
               (fun b leg -> Option.map (fun l -> (b, l)) leg)
               (Array.to_list d.Ba_layout.Decision.neither))
        in
        { proc = p; name = proc.Ba_ir.Proc.name; order = d.Ba_layout.Decision.order;
          forced; cost })
  in
  (* One replay of the one layout, on the architecture that judges [arch]. *)
  let spec = Ba_delta.Eval.spec_of_model arch in
  let image = Ba_layout.Image.build ~profile program decisions in
  let out =
    Ba_sim.Runner.simulate ~trace
      ~archs:[ Ba_delta.Eval.to_arch spec ~image ~profile ]
      image
  in
  {
    procs;
    (* Summed in procedure order, as the listing prints them. *)
    total_cost = List.fold_left (fun acc p -> acc +. p.cost) 0.0 procs;
    penalty_model = Ba_delta.Eval.spec_label spec;
    penalty_cycles = Ba_sim.Bep.bep (snd out.Ba_sim.Runner.sims.(0));
  }
