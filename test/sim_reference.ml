(* Reference copy of the predictor kernels as they were before the flat,
   allocation-free rewrite of Ba_predict/Ba_sim: record-per-entry BTB with
   [Hit]/[Miss] lookups, option-returning return stack, PHT and two-level
   tables with separate predict/update, Hashtbl likely bits, record-per-line
   Alpha history bits and icache, and the Bep/Alpha drivers over them.

   It exists only as the oracle of the bit-equality wall in test_sim.ml:
   every count, cycle figure and flushed sim.*/predict.* metric of the
   production kernels must equal what this code computes.  It is
   deliberately slow and must not be "optimised" — its value is that it is
   the old code.  The metric handles share the production names, so both
   sides can be flushed into separate registries and compared. *)

open Ba_exec

module Counter2 = struct
  let initial = 1
  let strongly_taken = 3
  let m_sat_hi = Ba_obs.Counter.make ~unit_:"updates" "predict.counter2.sat_hi"
  let m_sat_lo = Ba_obs.Counter.make ~unit_:"updates" "predict.counter2.sat_lo"
  let predict c = c >= 2
  let update c ~taken = if taken then min 3 (c + 1) else max 0 (c - 1)

  let flush_sat ~hi ~lo =
    Ba_obs.Counter.add m_sat_hi hi;
    Ba_obs.Counter.add m_sat_lo lo
end

module Btb = struct
  type entry = {
    mutable tag : int;
    mutable target : int;
    mutable counter : int;
    mutable stamp : int;
  }

  type t = {
    sets : entry array array;
    mutable clock : int;
    mutable s_lookups : int;
    mutable s_hits : int;
    mutable s_misses : int;
    mutable s_allocs : int;
    mutable s_evicts : int;
    mutable s_sat_hi : int;
    mutable s_sat_lo : int;
  }

  type lookup = Hit of { target : int; predict_taken : bool } | Miss

  let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.btb.lookup"
  let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.btb.hit"
  let m_miss = Ba_obs.Counter.make ~unit_:"events" "predict.btb.miss"
  let m_alloc = Ba_obs.Counter.make ~unit_:"events" "predict.btb.alloc"
  let m_evict = Ba_obs.Counter.make ~unit_:"events" "predict.btb.evict"

  let create ~entries ~assoc =
    let n_sets = entries / assoc in
    let fresh_entry () = { tag = -1; target = 0; counter = 0; stamp = 0 } in
    {
      sets = Array.init n_sets (fun _ -> Array.init assoc (fun _ -> fresh_entry ()));
      clock = 0;
      s_lookups = 0;
      s_hits = 0;
      s_misses = 0;
      s_allocs = 0;
      s_evicts = 0;
      s_sat_hi = 0;
      s_sat_lo = 0;
    }

  let set_of t ~pc =
    let assoc = Array.length t.sets.(0) in
    let entries = Array.length t.sets * assoc in
    t.sets.(pc land ((entries / assoc) - 1))

  let find_way set ~pc =
    let n = Array.length set in
    let rec scan i =
      if i = n then None else if set.(i).tag = pc then Some set.(i) else scan (i + 1)
    in
    scan 0

  let lookup t ~pc =
    t.s_lookups <- t.s_lookups + 1;
    match find_way (set_of t ~pc) ~pc with
    | Some e ->
      t.s_hits <- t.s_hits + 1;
      Hit { target = e.target; predict_taken = Counter2.predict e.counter }
    | None ->
      t.s_misses <- t.s_misses + 1;
      Miss

  let touch t e =
    t.clock <- t.clock + 1;
    e.stamp <- t.clock

  let update t ~pc ~taken ~target =
    let set = set_of t ~pc in
    match find_way set ~pc with
    | Some e ->
      if taken then begin if e.counter = 3 then t.s_sat_hi <- t.s_sat_hi + 1 end
      else if e.counter = 0 then t.s_sat_lo <- t.s_sat_lo + 1;
      e.counter <- Counter2.update e.counter ~taken;
      if taken then e.target <- target;
      touch t e
    | None ->
      if taken then begin
        let victim =
          Array.fold_left (fun acc e -> if e.stamp < acc.stamp then e else acc) set.(0) set
        in
        t.s_allocs <- t.s_allocs + 1;
        if victim.tag >= 0 then t.s_evicts <- t.s_evicts + 1;
        victim.tag <- pc;
        victim.target <- target;
        victim.counter <- Counter2.strongly_taken;
        touch t victim
      end

  let flush_obs t =
    Ba_obs.Counter.add m_lookup t.s_lookups;
    Ba_obs.Counter.add m_hit t.s_hits;
    Ba_obs.Counter.add m_miss t.s_misses;
    Ba_obs.Counter.add m_alloc t.s_allocs;
    Ba_obs.Counter.add m_evict t.s_evicts;
    Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo
end

module Return_stack = struct
  type t = {
    slots : int array;
    mutable top : int;
    mutable count : int;
    mutable s_pushes : int;
    mutable s_pops : int;
    mutable s_overflows : int;
    mutable s_underflows : int;
    s_depths : int array;
  }

  let create ~depth =
    { slots = Array.make depth 0; top = 0; count = 0; s_pushes = 0; s_pops = 0;
      s_overflows = 0; s_underflows = 0; s_depths = Array.make (depth + 1) 0 }

  let m_push = Ba_obs.Counter.make ~unit_:"events" "predict.ras.push"
  let m_pop = Ba_obs.Counter.make ~unit_:"events" "predict.ras.pop"
  let m_overflow = Ba_obs.Counter.make ~unit_:"events" "predict.ras.overflow"
  let m_underflow = Ba_obs.Counter.make ~unit_:"events" "predict.ras.underflow"

  let m_depth =
    Ba_obs.Histogram.make ~unit_:"entries" ~buckets:[| 1; 2; 4; 8; 16; 32; 64; 128 |]
      "predict.ras.depth"

  let push t addr =
    t.s_pushes <- t.s_pushes + 1;
    if t.count = Array.length t.slots then t.s_overflows <- t.s_overflows + 1;
    t.slots.(t.top) <- addr;
    t.top <- (t.top + 1) mod Array.length t.slots;
    t.count <- min (t.count + 1) (Array.length t.slots);
    t.s_depths.(t.count) <- t.s_depths.(t.count) + 1

  let pop t =
    t.s_pops <- t.s_pops + 1;
    if t.count = 0 then begin
      t.s_underflows <- t.s_underflows + 1;
      None
    end
    else begin
      t.top <- (t.top + Array.length t.slots - 1) mod Array.length t.slots;
      t.count <- t.count - 1;
      Some t.slots.(t.top)
    end

  let flush_obs t =
    Ba_obs.Counter.add m_push t.s_pushes;
    Ba_obs.Counter.add m_pop t.s_pops;
    Ba_obs.Counter.add m_overflow t.s_overflows;
    Ba_obs.Counter.add m_underflow t.s_underflows;
    Array.iteri (fun d n -> Ba_obs.Histogram.observe_n m_depth d ~n) t.s_depths
end

module Pht = struct
  type scheme = Direct | Gshare of { history_bits : int }

  type t = {
    table : int array;
    owner : int array;
    scheme : scheme;
    mutable history : int;
    mutable s_lookups : int;
    mutable s_hits : int;
    mutable s_aliases : int;
    mutable s_sat_hi : int;
    mutable s_sat_lo : int;
  }

  let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.pht.lookup"
  let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.pht.hit"
  let m_alias = Ba_obs.Counter.make ~unit_:"events" "predict.pht.alias"

  let create ~entries scheme =
    { table = Array.make entries Counter2.initial; owner = Array.make entries (-1); scheme;
      history = 0; s_lookups = 0; s_hits = 0; s_aliases = 0; s_sat_hi = 0; s_sat_lo = 0 }

  let index t ~pc =
    let entries = Array.length t.table in
    match t.scheme with
    | Direct -> pc land (entries - 1)
    | Gshare _ -> (pc lxor t.history) land (entries - 1)

  let predict t ~pc =
    t.s_lookups <- t.s_lookups + 1;
    Counter2.predict t.table.(index t ~pc)

  let update t ~pc ~taken =
    let i = index t ~pc in
    let c = t.table.(i) in
    if Counter2.predict c = taken then t.s_hits <- t.s_hits + 1;
    if t.owner.(i) >= 0 && t.owner.(i) <> pc then t.s_aliases <- t.s_aliases + 1;
    if taken then begin if c = 3 then t.s_sat_hi <- t.s_sat_hi + 1 end
    else if c = 0 then t.s_sat_lo <- t.s_sat_lo + 1;
    t.owner.(i) <- pc;
    t.table.(i) <- Counter2.update c ~taken;
    match t.scheme with
    | Direct -> ()
    | Gshare { history_bits } ->
      t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land ((1 lsl history_bits) - 1)

  let flush_obs t =
    Ba_obs.Counter.add m_lookup t.s_lookups;
    Ba_obs.Counter.add m_hit t.s_hits;
    Ba_obs.Counter.add m_alias t.s_aliases;
    Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo
end

module Two_level = struct
  type scheme = Global of { mutable history : int } | Local of { histories : int array }

  type t = {
    pattern : int array;
    pattern_mask : int;
    scheme : scheme;
    mutable s_lookups : int;
    mutable s_hits : int;
    mutable s_sat_hi : int;
    mutable s_sat_lo : int;
  }

  let create ~history_bits scheme =
    { pattern = Array.make (1 lsl history_bits) Counter2.initial;
      pattern_mask = (1 lsl history_bits) - 1; scheme; s_lookups = 0; s_hits = 0;
      s_sat_hi = 0; s_sat_lo = 0 }

  let index t ~pc =
    match t.scheme with
    | Global { history } -> history land t.pattern_mask
    | Local { histories } -> histories.(pc land (Array.length histories - 1)) land t.pattern_mask

  let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.two_level.lookup"
  let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.two_level.hit"

  let predict t ~pc =
    t.s_lookups <- t.s_lookups + 1;
    Counter2.predict t.pattern.(index t ~pc)

  let update t ~pc ~taken =
    let i = index t ~pc in
    let c = t.pattern.(i) in
    if Counter2.predict c = taken then t.s_hits <- t.s_hits + 1;
    if taken then begin if c = 3 then t.s_sat_hi <- t.s_sat_hi + 1 end
    else if c = 0 then t.s_sat_lo <- t.s_sat_lo + 1;
    t.pattern.(i) <- Counter2.update c ~taken;
    let bit = if taken then 1 else 0 in
    match t.scheme with
    | Global g -> g.history <- ((g.history lsl 1) lor bit) land t.pattern_mask
    | Local { histories } ->
      let j = pc land (Array.length histories - 1) in
      histories.(j) <- ((histories.(j) lsl 1) lor bit) land t.pattern_mask

  let flush_obs t =
    Ba_obs.Counter.add m_lookup t.s_lookups;
    Ba_obs.Counter.add m_hit t.s_hits;
    Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo
end

module Likely_bits = struct
  open Ba_layout

  let build (image : Image.t) profile =
    let hints = Hashtbl.create 256 in
    Array.iteri
      (fun p (linear : Linear.t) ->
        Array.iter
          (fun (lb : Linear.lblock) ->
            match lb.Linear.term with
            | Linear.Lcond { taken_on; _ } ->
              let n_true, n_false = Ba_cfg.Profile.cond_counts profile p lb.Linear.src in
              Hashtbl.replace hints (Linear.branch_pc lb) (n_true >= n_false = taken_on)
            | _ -> ())
          linear.Linear.blocks)
      image.Image.linears;
    fun pc ->
      match Hashtbl.find_opt hints pc with
      | Some b -> b
      | None -> invalid_arg "Sim_reference.Likely_bits: not a conditional branch"
end

module Bep = struct
  type predictor =
    | Rule of Ba_predict.Static_rule.t
    | Table of Pht.t
    | Adaptive of Two_level.t
    | Buffer of Btb.t

  type t = {
    predictor : predictor;
    ras : Return_stack.t;
    c : Ba_sim.Bep.counts;
    m_arch_penalty : Ba_obs.Counter.t;
  }

  let m_misfetch = Ba_obs.Counter.make ~unit_:"events" "sim.bep.misfetch"
  let m_mispredict = Ba_obs.Counter.make ~unit_:"events" "sim.bep.mispredict"
  let m_misfetch_cycles = Ba_obs.Counter.make ~unit_:"cycles" "sim.bep.misfetch_cycles"
  let m_mispredict_cycles = Ba_obs.Counter.make ~unit_:"cycles" "sim.bep.mispredict_cycles"
  let m_cond = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.cond"
  let m_cond_taken = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.cond_taken"
  let m_cond_correct = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.cond_correct"
  let m_uncond = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.uncond"
  let m_call = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.call"
  let m_indirect = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.indirect"
  let m_ret = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.ret"
  let m_ret_correct = Ba_obs.Counter.make ~unit_:"branches" "sim.bep.class.ret_correct"

  (* [likely] supplies the LIKELY hints (the reference's own Hashtbl bits),
     so the production dense table is not consulted. *)
  let create ~likely (arch : Ba_sim.Bep.arch) =
    let predictor =
      match arch with
      | Static_fallthrough -> Rule Ba_predict.Static_rule.Fallthrough
      | Static_btfnt -> Rule Ba_predict.Static_rule.Btfnt
      | Static_likely _ -> Rule (Ba_predict.Static_rule.Likely likely)
      | Pht_direct { entries } -> Table (Pht.create ~entries Pht.Direct)
      | Pht_gshare { entries; history_bits } ->
        Table (Pht.create ~entries (Pht.Gshare { history_bits }))
      | Pht_global { history_bits } ->
        Adaptive (Two_level.create ~history_bits (Two_level.Global { history = 0 }))
      | Pht_local { history_bits; branch_entries } ->
        Adaptive
          (Two_level.create ~history_bits
             (Two_level.Local { histories = Array.make branch_entries 0 }))
      | Btb_arch { entries; assoc } -> Buffer (Btb.create ~entries ~assoc)
    in
    {
      predictor;
      ras = Return_stack.create ~depth:32;
      c =
        { misfetches = 0; mispredicts = 0; cond = 0; cond_taken = 0; cond_correct = 0;
          uncond = 0; calls = 0; indirect = 0; rets = 0; rets_correct = 0 };
      m_arch_penalty =
        Ba_obs.Counter.make ~unit_:"cycles"
          (Printf.sprintf "sim.bep.arch.%s.penalty_cycles" (Ba_sim.Bep.arch_label arch));
    }

  let misfetch t = t.c.misfetches <- t.c.misfetches + 1
  let mispredict t = t.c.mispredicts <- t.c.mispredicts + 1

  let on_cond t (e : Event.t) ~taken ~taken_target =
    t.c.cond <- t.c.cond + 1;
    if taken then t.c.cond_taken <- t.c.cond_taken + 1;
    let direction predicted =
      if predicted = taken then begin
        t.c.cond_correct <- t.c.cond_correct + 1;
        if taken then misfetch t
      end
      else mispredict t
    in
    match t.predictor with
    | Rule rule -> direction (Ba_predict.Static_rule.predict_taken rule ~pc:e.pc ~taken_target)
    | Table pht ->
      let predicted = Pht.predict pht ~pc:e.pc in
      Pht.update pht ~pc:e.pc ~taken;
      direction predicted
    | Adaptive two ->
      let predicted = Two_level.predict two ~pc:e.pc in
      Two_level.update two ~pc:e.pc ~taken;
      direction predicted
    | Buffer btb ->
      let correct =
        match Btb.lookup btb ~pc:e.pc with
        | Btb.Hit { target; predict_taken } ->
          if predict_taken then taken && target = e.target else not taken
        | Btb.Miss -> not taken
      in
      Btb.update btb ~pc:e.pc ~taken ~target:e.target;
      if correct then t.c.cond_correct <- t.c.cond_correct + 1 else mispredict t

  let on_always_taken t (e : Event.t) =
    match t.predictor with
    | Rule _ | Table _ | Adaptive _ -> misfetch t
    | Buffer btb -> (
      match Btb.lookup btb ~pc:e.pc with
      | Btb.Hit _ -> Btb.update btb ~pc:e.pc ~taken:true ~target:e.target
      | Btb.Miss ->
        misfetch t;
        Btb.update btb ~pc:e.pc ~taken:true ~target:e.target)

  let on_indirect t (e : Event.t) =
    match t.predictor with
    | Rule _ | Table _ | Adaptive _ -> mispredict t
    | Buffer btb -> (
      match Btb.lookup btb ~pc:e.pc with
      | Btb.Hit { target; _ } ->
        if target <> e.target then mispredict t;
        Btb.update btb ~pc:e.pc ~taken:true ~target:e.target
      | Btb.Miss ->
        mispredict t;
        Btb.update btb ~pc:e.pc ~taken:true ~target:e.target)

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
    | Event.Ret -> (
      t.c.rets <- t.c.rets + 1;
      match Return_stack.pop t.ras with
      | Some addr when addr = e.target -> t.c.rets_correct <- t.c.rets_correct + 1
      | Some _ | None -> mispredict t)

  let bep t = t.c.misfetches + (t.c.mispredicts * 4)

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
    Ba_obs.Counter.add m_misfetch_cycles c.misfetches;
    Ba_obs.Counter.add m_mispredict_cycles (c.mispredicts * 4);
    Ba_obs.Counter.add t.m_arch_penalty (bep t);
    Ba_obs.Counter.add m_cond c.cond;
    Ba_obs.Counter.add m_cond_taken c.cond_taken;
    Ba_obs.Counter.add m_cond_correct c.cond_correct;
    Ba_obs.Counter.add m_uncond c.uncond;
    Ba_obs.Counter.add m_call c.calls;
    Ba_obs.Counter.add m_indirect c.indirect;
    Ba_obs.Counter.add m_ret c.rets;
    Ba_obs.Counter.add m_ret_correct c.rets_correct
end

module Alpha_bits = struct
  type line = { mutable tag : int; bits : bool array; valid : bool array }
  type t = { lines : line array; insns_per_line : int; mutable s_cold : int; mutable s_refills : int }

  let create ~lines ~insns_per_line =
    {
      lines =
        Array.init lines (fun _ ->
            { tag = -1; bits = Array.make insns_per_line false;
              valid = Array.make insns_per_line false });
      insns_per_line;
      s_cold = 0;
      s_refills = 0;
    }

  let locate t ~pc =
    let line_no = pc / t.insns_per_line in
    (t.lines.(line_no land (Array.length t.lines - 1)), line_no, pc mod t.insns_per_line)

  let m_refill = Ba_obs.Counter.make ~unit_:"events" "predict.alpha.refill"
  let m_cold = Ba_obs.Counter.make ~unit_:"events" "predict.alpha.cold"

  let predict t ~pc ~taken_target =
    let line, tag, slot = locate t ~pc in
    if line.tag = tag && line.valid.(slot) then line.bits.(slot)
    else begin
      t.s_cold <- t.s_cold + 1;
      taken_target <= pc
    end

  let update t ~pc ~taken =
    let line, tag, slot = locate t ~pc in
    if line.tag <> tag then begin
      t.s_refills <- t.s_refills + 1;
      line.tag <- tag;
      Array.fill line.valid 0 (Array.length line.valid) false
    end;
    line.bits.(slot) <- taken;
    line.valid.(slot) <- true

  let flush_obs t =
    Ba_obs.Counter.add m_cold t.s_cold;
    Ba_obs.Counter.add m_refill t.s_refills
end

module Icache = struct
  type set = { tags : int array; stamps : int array }

  type t = {
    sets : set array;
    insns_per_line : int;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create ~lines ~insns_per_line =
    { sets = Array.init lines (fun _ -> { tags = [| -1 |]; stamps = [| 0 |] }); insns_per_line;
      clock = 0; accesses = 0; misses = 0 }

  let m_access = Ba_obs.Counter.make ~unit_:"lines" "predict.icache.access"
  let m_miss = Ba_obs.Counter.make ~unit_:"lines" "predict.icache.miss"

  let access_line t line_no =
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    let set = t.sets.(line_no land (Array.length t.sets - 1)) in
    let ways = Array.length set.tags in
    let rec find i = if i = ways then None else if set.tags.(i) = line_no then Some i else find (i + 1) in
    match find 0 with
    | Some way -> set.stamps.(way) <- t.clock
    | None ->
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      for w = 1 to ways - 1 do
        if set.stamps.(w) < set.stamps.(!victim) then victim := w
      done;
      set.tags.(!victim) <- line_no;
      set.stamps.(!victim) <- t.clock

  let touch_range t ~addr ~size =
    if size > 0 then
      for line = addr / t.insns_per_line to (addr + size - 1) / t.insns_per_line do
        access_line t line
      done

  let flush_obs t =
    Ba_obs.Counter.add m_access t.accesses;
    Ba_obs.Counter.add m_miss t.misses
end

module Alpha = struct
  type t = {
    config : Ba_sim.Alpha.config;
    bits : Alpha_bits.t;
    ras : Return_stack.t;
    icache : Icache.t;
    issue : (int, int array) Hashtbl.t option;
    mutable issue_cycles : int;
    mutable misfetches : int;
    mutable mispredicts : int;
  }

  (* Direct-mapped icache, as [Ba_sim.Alpha] builds it. *)
  let create ?issue () =
    let config = Ba_sim.Alpha.default_config in
    {
      config;
      bits = Alpha_bits.create ~lines:config.lines ~insns_per_line:config.insns_per_line;
      ras = Return_stack.create ~depth:config.return_stack_depth;
      icache = Icache.create ~lines:config.icache_lines ~insns_per_line:config.insns_per_line;
      issue;
      issue_cycles = 0;
      misfetches = 0;
      mispredicts = 0;
    }

  let on_event t (e : Event.t) =
    match e.kind with
    | Event.Cond { taken; taken_target } ->
      let predicted = Alpha_bits.predict t.bits ~pc:e.pc ~taken_target in
      Alpha_bits.update t.bits ~pc:e.pc ~taken;
      if predicted = taken then begin
        if taken then t.misfetches <- t.misfetches + 1
      end
      else t.mispredicts <- t.mispredicts + 1
    | Event.Uncond -> t.misfetches <- t.misfetches + 1
    | Event.Call ->
      t.misfetches <- t.misfetches + 1;
      Return_stack.push t.ras (Event.fallthrough_addr e)
    | Event.Indirect_jump -> t.mispredicts <- t.mispredicts + 1
    | Event.Indirect_call ->
      t.mispredicts <- t.mispredicts + 1;
      Return_stack.push t.ras (Event.fallthrough_addr e)
    | Event.Ret -> (
      match Return_stack.pop t.ras with
      | Some addr when addr = e.target -> ()
      | Some _ | None -> t.mispredicts <- t.mispredicts + 1)

  let on_block t ~addr ~size =
    Icache.touch_range t.icache ~addr ~size;
    match t.issue with
    | None -> ()
    | Some prefix -> (
      match Hashtbl.find_opt prefix addr with
      | Some c -> t.issue_cycles <- t.issue_cycles + c.(min size (Array.length c - 1))
      | None -> t.issue_cycles <- t.issue_cycles + size)

  let cycles t ~insns =
    (match t.issue with
    | Some _ -> float_of_int t.issue_cycles
    | None -> float_of_int insns /. t.config.issue_width)
    +. (float_of_int t.misfetches *. t.config.misfetch_cycles *. (1.0 -. t.config.squash_rate))
    +. (float_of_int t.mispredicts *. t.config.mispredict_cycles)
    +. (float_of_int t.icache.Icache.misses *. t.config.icache_miss_cycles)

  let flush_obs t =
    Alpha_bits.flush_obs t.bits;
    Return_stack.flush_obs t.ras;
    Icache.flush_obs t.icache
end

(* The drivers, replaying a recorded trace as [Ba_sim.Runner] does. *)

let simulate ~profile ~trace ~archs image =
  let likely = Likely_bits.build image profile in
  let sims = Array.of_list (List.map (Bep.create ~likely) archs) in
  let result =
    Ba_trace.Replay.run
      ~on_event:(fun ev -> Array.iter (fun sim -> Bep.on_event sim ev) sims)
      (Ba_trace.Flat.of_image image) trace
  in
  Array.iter Bep.flush_obs sims;
  (result, sims)

let simulate_alpha ?fp_fraction ~trace image =
  let issue =
    Option.map
      (fun fp_fraction ->
        Ba_isa.Pairing.prefix_table (Ba_isa.Codegen.of_image ~fp_fraction image))
      fp_fraction
  in
  let alpha = Alpha.create ?issue () in
  let result =
    Ba_trace.Replay.run ~on_event:(Alpha.on_event alpha) ~on_block:(Alpha.on_block alpha)
      (Ba_trace.Flat.of_image image) trace
  in
  Alpha.flush_obs alpha;
  (result, alpha)
