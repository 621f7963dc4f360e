open Ba_exec
open Ba_predict

type arch =
  | Static_fallthrough
  | Static_btfnt
  | Static_likely of Likely_bits.t
  | Pht_direct of { entries : int }
  | Pht_gshare of { entries : int; history_bits : int }
  | Pht_global of { history_bits : int }
  | Pht_local of { history_bits : int; branch_entries : int }
  | Btb_arch of { entries : int; assoc : int }

let arch_label = function
  | Static_fallthrough -> "FALLTHROUGH"
  | Static_btfnt -> "BT/FNT"
  | Static_likely _ -> "LIKELY"
  | Pht_direct { entries } -> Printf.sprintf "PHT-%d" entries
  | Pht_gshare { entries; _ } -> Printf.sprintf "gshare-%d" entries
  | Pht_global { history_bits } -> Printf.sprintf "GAg-%d" (1 lsl history_bits)
  | Pht_local { history_bits; _ } -> Printf.sprintf "PAg-%d" (1 lsl history_bits)
  | Btb_arch { entries; assoc } -> Printf.sprintf "BTB-%d/%d" entries assoc

type penalties = { misfetch : int; mispredict : int }

let default_penalties = { misfetch = 1; mispredict = 4 }

type counts = {
  mutable misfetches : int;
  mutable mispredicts : int;
  mutable cond : int;
  mutable cond_taken : int;
  mutable cond_correct : int;
  mutable uncond : int;
  mutable calls : int;
  mutable indirect : int;
  mutable rets : int;
  mutable rets_correct : int;
}

type predictor =
  | Rule of Static_rule.t
  | Table of Pht.t
  | Adaptive of Two_level.t
  | Buffer of Btb.t

type t = {
  predictor : predictor;
  ras : Return_stack.t;
  penalties : penalties;
  c : counts;
  m_arch_penalty : Ba_obs.Counter.t;  (* sim.bep.arch.<label>.penalty_cycles *)
}

let m_misfetch = Ba_obs.Counter.make ~unit_:"events" "sim.bep.misfetch"
let m_mispredict = Ba_obs.Counter.make ~unit_:"events" "sim.bep.mispredict"
let m_misfetch_cycles = Ba_obs.Counter.make ~unit_:"cycles" "sim.bep.misfetch_cycles"

let m_mispredict_cycles =
  Ba_obs.Counter.make ~unit_:"cycles" "sim.bep.mispredict_cycles"

let m_cond = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.cond"
let m_cond_taken = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.cond_taken"
let m_cond_correct = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.cond_correct"
let m_uncond = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.uncond"
let m_call = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.call"
let m_indirect = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.indirect"
let m_ret = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.ret"
let m_ret_correct = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.ret_correct"

let zero_counts () =
  {
    misfetches = 0;
    mispredicts = 0;
    cond = 0;
    cond_taken = 0;
    cond_correct = 0;
    uncond = 0;
    calls = 0;
    indirect = 0;
    rets = 0;
    rets_correct = 0;
  }

let create ?(penalties = default_penalties) ?(return_stack_depth = 32) arch =
  let predictor =
    match arch with
    | Static_fallthrough -> Rule Static_rule.Fallthrough
    | Static_btfnt -> Rule Static_rule.Btfnt
    | Static_likely bits -> Rule (Static_rule.Likely (Likely_bits.hint bits))
    | Pht_direct { entries } -> Table (Pht.create_direct ~entries)
    | Pht_gshare { entries; history_bits } -> Table (Pht.create_gshare ~entries ~history_bits)
    | Pht_global { history_bits } -> Adaptive (Two_level.create_global ~history_bits ())
    | Pht_local { history_bits; branch_entries } ->
      Adaptive (Two_level.create_local ~history_bits ~branch_entries ())
    | Btb_arch { entries; assoc } -> Buffer (Btb.create ~entries ~assoc)
  in
  {
    predictor;
    ras = Return_stack.create ~depth:return_stack_depth;
    penalties;
    c = zero_counts ();
    m_arch_penalty =
      Ba_obs.Counter.make ~unit_:"cycles"
        (Printf.sprintf "sim.bep.arch.%s.penalty_cycles" (arch_label arch));
  }

let misfetch t = t.c.misfetches <- t.c.misfetches + 1
let mispredict t = t.c.mispredicts <- t.c.mispredicts + 1

(* A direction predictor's verdict on a conditional: a correctly predicted
   taken branch still misfetches. *)
let score t ~predicted ~taken =
  if predicted = taken then begin
    t.c.cond_correct <- t.c.cond_correct + 1;
    if taken then misfetch t
  end
  else mispredict t

(* The per-event path: int comparisons only, and no option, variant or
   tuple results from the predictors, so it allocates nothing. *)
let on_cond t (e : Event.t) ~taken ~taken_target =
  t.c.cond <- t.c.cond + 1;
  if taken then t.c.cond_taken <- t.c.cond_taken + 1;
  match t.predictor with
  | Rule rule -> score t ~taken ~predicted:(Static_rule.predict_taken rule ~pc:e.pc ~taken_target)
  | Table pht -> score t ~taken ~predicted:(Pht.step pht ~pc:e.pc ~taken)
  | Adaptive two -> score t ~taken ~predicted:(Two_level.step two ~pc:e.pc ~taken)
  | Buffer btb ->
    let slot = Btb.probe btb ~pc:e.pc in
    let correct =
      if slot >= 0 && Btb.predicts_taken btb slot then taken && Btb.target btb slot = e.target
      else not taken
    in
    Btb.train btb ~slot ~pc:e.pc ~taken ~target:e.target;
    if correct then t.c.cond_correct <- t.c.cond_correct + 1 else mispredict t

(* Unconditional direct transfers: target known at decode, so the cost is a
   misfetch for the static and PHT architectures; a BTB hit removes even
   that.  Indirect transfers always mispredict without a BTB; with one, a
   miss or a stale target does. *)
let on_always_taken t (e : Event.t) =
  match t.predictor with
  | Rule _ | Table _ | Adaptive _ -> misfetch t
  | Buffer btb ->
    let slot = Btb.probe btb ~pc:e.pc in
    if slot < 0 then misfetch t;
    Btb.train btb ~slot ~pc:e.pc ~taken:true ~target:e.target

let on_indirect t (e : Event.t) =
  match t.predictor with
  | Rule _ | Table _ | Adaptive _ -> mispredict t
  | Buffer btb ->
    let slot = Btb.probe btb ~pc:e.pc in
    if slot < 0 || Btb.target btb slot <> e.target then mispredict t;
    Btb.train btb ~slot ~pc:e.pc ~taken:true ~target:e.target

let on_event t (e : Event.t) =
  match e.kind with
  | Event.Cond { taken; taken_target } -> on_cond t e ~taken ~taken_target
  | Event.Uncond ->
    t.c.uncond <- t.c.uncond + 1;
    on_always_taken t e
  | Event.Call ->
    t.c.calls <- t.c.calls + 1;
    on_always_taken t e;
    Return_stack.push t.ras (Event.fallthrough_addr e)
  | Event.Indirect_jump ->
    t.c.indirect <- t.c.indirect + 1;
    on_indirect t e
  | Event.Indirect_call ->
    t.c.indirect <- t.c.indirect + 1;
    on_indirect t e;
    Return_stack.push t.ras (Event.fallthrough_addr e)
  | Event.Ret ->
    t.c.rets <- t.c.rets + 1;
    (* an empty stack pops -1, which no target equals *)
    if Return_stack.pop t.ras = e.target then t.c.rets_correct <- t.c.rets_correct + 1
    else mispredict t

let counts t = t.c

let bep t =
  (t.c.misfetches * t.penalties.misfetch) + (t.c.mispredicts * t.penalties.mispredict)

(* Every global metric above is a pure function of the final books, so the
   simulation loop never touches the registry: the books are flushed once,
   when the run is over (the runner does this; so must anyone driving
   [on_event] by hand who wants the sim.bep.* counters populated).  The
   flushed values are exactly what per-event increments would have
   produced. *)
let flush_obs t =
  (match t.predictor with
  | Rule _ -> ()
  | Table pht -> Pht.flush_obs pht
  | Adaptive two -> Two_level.flush_obs two
  | Buffer btb -> Btb.flush_obs btb);
  Return_stack.flush_obs t.ras;
  let c = t.c in
  Ba_obs.Counter.add m_misfetch c.misfetches;
  Ba_obs.Counter.add m_mispredict c.mispredicts;
  Ba_obs.Counter.add m_misfetch_cycles (c.misfetches * t.penalties.misfetch);
  Ba_obs.Counter.add m_mispredict_cycles (c.mispredicts * t.penalties.mispredict);
  Ba_obs.Counter.add t.m_arch_penalty (bep t);
  Ba_obs.Counter.add m_cond c.cond;
  Ba_obs.Counter.add m_cond_taken c.cond_taken;
  Ba_obs.Counter.add m_cond_correct c.cond_correct;
  Ba_obs.Counter.add m_uncond c.uncond;
  Ba_obs.Counter.add m_call c.calls;
  Ba_obs.Counter.add m_indirect c.indirect;
  Ba_obs.Counter.add m_ret c.rets;
  Ba_obs.Counter.add m_ret_correct c.rets_correct

let cond_accuracy t = Ba_util.Stats.ratio t.c.cond_correct t.c.cond

let relative_cpi t ~insns ~orig_insns =
  float_of_int (insns + bep t) /. float_of_int orig_insns
