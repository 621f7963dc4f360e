(* Unit costs of single layers, measured on a workload's own programs at
   its own budget.

   Per-predictor cost is found by differencing: each round times a
   replay-only baseline (Runner.simulate ~archs:[]) and then each
   architecture alone over the same trace, and takes the difference.  The
   reported figure is the median of these paired differences over the
   rounds, so one slow baseline cannot drive a predictor negative; rounds
   are added until every difference is positive. *)

open Ba_sim

let programs = [ "alvinn"; "gcc" ]

let spec name = Option.get (Ba_workloads.Spec.by_name name)

(* Run [f] enough times to fill [min_ns]; nanoseconds and minor words per
   call. *)
let measure ?(min_ns = 20_000_000L) f =
  let rec go reps =
    let w0 = Gc.minor_words () in
    let t0 = Util.now_ns () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Int64.sub (Util.now_ns ()) t0 in
    let words = Gc.minor_words () -. w0 in
    if dt < min_ns && reps < 1_000_000 then go (reps * 4)
    else (Int64.to_float dt /. float_of_int reps, words /. float_of_int reps)
  in
  go 1

let sim_archs image profile =
  [
    ("fallthrough", Bep.Static_fallthrough);
    ("btfnt", Bep.Static_btfnt);
    ("likely", Bep.Static_likely (Ba_predict.Likely_bits.build image profile));
    ("pht", Bep.Pht_direct { entries = 4096 });
    ("gshare", Bep.Pht_gshare { entries = 4096; history_bits = 12 });
    ("btb64", Bep.Btb_arch { entries = 64; assoc = 2 });
    ("btb256", Bep.Btb_arch { entries = 256; assoc = 4 });
  ]

let sim_names = [ "fallthrough"; "btfnt"; "likely"; "pht"; "gshare"; "btb64"; "btb256"; "alpha" ]

type sim = {
  base_ns : float;  (* replay-only, per event *)
  base_words : float;
  arch_ns : (string * float) list;  (* marginal, per event *)
  arch_words : (string * float) list;
}

(* One round over one program: the replay-only baseline's nanoseconds and
   words per call, and each configuration's difference from it. *)
type round = { base : float; base_w : float; diffs : (string * (float * float)) list }

let diff r n = List.assoc n r.diffs

let sim ~max_steps ~rounds =
  let per_program name =
    let w = spec name in
    let program, profile, trace = Ba_workloads.Profiled.get_traced ~max_steps w in
    let image = Ba_layout.Image.original ~profile program in
    let fp_fraction = match w.Ba_workloads.Spec.cls with Ba_workloads.Spec.Fp -> 0.5 | _ -> 0.08 in
    let replay_only () = ignore (Runner.simulate ~max_steps ~trace ~archs:[] image) in
    let events = (Runner.simulate ~max_steps ~trace ~archs:[] image).Runner.result.Ba_exec.Engine.branches in
    let configs =
      List.map
        (fun (n, a) -> (n, fun () -> ignore (Runner.simulate ~max_steps ~trace ~archs:[ a ] image)))
        (sim_archs image profile)
      @ [ ("alpha", fun () -> ignore (Runner.simulate_alpha ~max_steps ~fp_fraction ~trace image)) ]
    in
    let one_round () =
      let b0, bw = measure replay_only in
      let timed = List.map (fun (n, f) -> (n, measure f)) configs in
      let b1, _ = measure replay_only in
      let b = (b0 +. b1) /. 2.0 in
      { base = b; base_w = bw; diffs = List.map (fun (n, (t, w)) -> (n, (t -. b, w -. bw))) timed }
    in
    let positive rs = List.for_all (fun n -> Util.median (List.map (fun r -> fst (diff r n)) rs) > 0.0) sim_names in
    (* Extra rounds only until every median difference is positive, and at
       most three times as many. *)
    let rec collect rs =
      let n = List.length rs in
      if n >= rounds && (positive rs || n >= 3 * rounds) then rs else collect (one_round () :: rs)
    in
    (events, collect [])
  in
  let per = List.map per_program programs in
  let events = float_of_int (List.fold_left (fun a (e, _) -> a + e) 0 per) in
  (* Per event over all probe programs: each program's median, summed. *)
  let per_event f = List.fold_left (fun a (_, rs) -> a +. Util.median (List.map f rs)) 0.0 per /. events in
  {
    base_ns = per_event (fun r -> r.base);
    base_words = per_event (fun r -> r.base_w);
    arch_ns = List.map (fun n -> (n, per_event (fun r -> fst (diff r n)))) sim_names;
    arch_words = List.map (fun n -> (n, per_event (fun r -> snd (diff r n)))) sim_names;
  }

(* Microseconds per procedure for each alignment algorithm (BT/FNT cost
   model where one applies). *)
let align_algos = [ ("greedy", Ba_core.Align.Greedy); ("cost", Ba_core.Align.Cost); ("try15", Ba_core.Align.Tryn 15); ("exttsp", Ba_core.Align.ExtTsp) ]

let align ~max_steps ~rounds =
  let profiles = List.map (fun n -> snd (Ba_workloads.Profiled.get ~max_steps (spec n))) programs in
  let procs =
    List.fold_left (fun a p -> a + Ba_ir.Program.n_procs (Ba_cfg.Profile.program p)) 0 profiles
  in
  List.map
    (fun (name, algo) ->
      let round () =
        List.fold_left
          (fun a p -> a +. fst (measure ~min_ns:5_000_000L (fun () -> Ba_core.Align.align_program algo ~arch:Ba_core.Cost_model.Btfnt p)))
          0.0 profiles
      in
      (name, Util.median (List.init rounds (fun _ -> round ())) /. 1e3 /. float_of_int procs))
    align_algos

(* Nanoseconds to price one candidate layout with Ba_delta.Eval: the
   first 24 one-move neighbours of the Try15 layout, BT/FNT model. *)
let delta ~max_steps ~rounds =
  let per_program name =
    let program, profile, trace = Ba_workloads.Profiled.get_traced ~max_steps (spec name) in
    let base = Ba_core.Align.align_program (Ba_core.Align.Tryn 15) ~arch:Ba_core.Cost_model.Btfnt profile in
    let moves =
      List.filteri (fun i _ -> i < 24)
        (Ba_delta.Move.enumerate ~cond_counts:(fun p b -> Ba_cfg.Profile.cond_counts profile p b) program base)
    in
    let ev =
      Ba_delta.Eval.create ~specs:[| Ba_delta.Eval.spec_of_model Ba_core.Cost_model.Btfnt |] profile trace base
    in
    let price () = List.iter (fun mv -> ignore (Ba_delta.Eval.cost_arch ev 0 (Ba_delta.Move.apply base mv) : int)) moves in
    (List.length moves, fun () -> fst (measure ~min_ns:5_000_000L price))
  in
  let per = List.map per_program programs in
  let n = List.fold_left (fun a (m, _) -> a + m) 0 per in
  Util.median (List.init rounds (fun _ -> List.fold_left (fun a (_, f) -> a +. f ()) 0.0 per))
  /. float_of_int (max 1 n)

(* Nanoseconds per byte to render and to parse a JSON document. *)
let json doc =
  let s = Ba_util.Json.to_string doc in
  let bytes = float_of_int (max 1 (String.length s)) in
  let enc, _ = measure (fun () -> Ba_util.Json.to_string doc) in
  let dec, _ = measure (fun () -> Ba_util.Json.parse s) in
  (enc /. bytes, dec /. bytes)
