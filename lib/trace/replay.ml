open Ba_exec

let m_replays = Ba_obs.Counter.make ~unit_:"runs" "exec.trace.replays"
let m_steps = Ba_obs.Counter.make ~unit_:"blocks" "exec.trace.steps"
let m_insns = Ba_obs.Counter.make ~unit_:"insns" "exec.trace.insns"
let m_branches = Ba_obs.Counter.make ~unit_:"branches" "exec.trace.branches"

let run ?(on_event = fun _ -> ()) ?(on_block = fun ~addr:_ ~size:_ -> ())
    (flat : Flat.t) (tr : Trace.t) =
  let addr = flat.Flat.addr in
  let insns_of = flat.Flat.insns in
  let opcode = flat.Flat.opcode in
  let fa = flat.Flat.a and fb = flat.Flat.b and fc = flat.Flat.c in
  let succ = flat.Flat.succ and arity = flat.Flat.arity in
  (* one scratch event, mutated in place *)
  let cond_kind = Event.Cond { taken = false; taken_target = 0 } in
  let scratch = { Event.pc = 0; target = 0; kind = Event.Uncond } in
  let branches = ref 0 in
  let emit pc target kind =
    scratch.Event.pc <- pc;
    scratch.Event.target <- target;
    scratch.Event.kind <- kind;
    incr branches;
    on_event scratch
  in
  let emit_cond pc target ~taken ~taken_target =
    (match cond_kind with
    | Event.Cond payload ->
      payload.taken <- taken;
      payload.taken_target <- taken_target
    | _ -> assert false);
    emit pc target cond_kind
  in
  (* decision cursors *)
  let conds = tr.Trace.conds in
  let cond_i = ref 0 in
  let next_outcome () =
    let i = !cond_i in
    if i >= tr.Trace.n_conds then
      failwith "Replay: trace exhausted (conditional outcomes)";
    cond_i := i + 1;
    (Char.code (Bytes.unsafe_get conds (i lsr 3)) lsr (i land 7)) land 1 = 1
  in
  let choices = tr.Trace.choices in
  let choices_len = Bytes.length choices in
  let choice_off = ref 0 in
  (* the successor block chosen at switch or vcall [gp] *)
  let next_choice gp =
    let off = ref !choice_off in
    let shift = ref 0 and acc = ref 0 and fin = ref false in
    while not !fin do
      if !off >= choices_len then
        failwith "Replay: trace exhausted (switch/vcall indices)";
      let byte = Char.code (Bytes.unsafe_get choices !off) in
      incr off;
      acc := !acc lor ((byte land 0x7F) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then fin := true
    done;
    choice_off := !off;
    let k = !acc in
    if k < 0 || k >= arity.(gp) then failwith "Replay: choice out of range";
    succ.(fa.(gp) + k)
  in
  (* call stack as a pair of int arrays: (jump_pc or -1, resume gpos) *)
  let cap = ref 64 in
  let s_jump = ref (Array.make !cap 0) in
  let s_res = ref (Array.make !cap 0) in
  let sp = ref 0 in
  let push jump_pc resume =
    if !sp = !cap then begin
      let cap' = !cap * 2 in
      let j = Array.make cap' 0 and r = Array.make cap' 0 in
      Array.blit !s_jump 0 j 0 !cap;
      Array.blit !s_res 0 r 0 !cap;
      s_jump := j;
      s_res := r;
      cap := cap'
    end;
    !s_jump.(!sp) <- jump_pc;
    !s_res.(!sp) <- resume;
    incr sp
  in
  let budget = tr.Trace.steps in
  let insns = ref 0 in
  let steps = ref 0 in
  let g = ref flat.Flat.entry in
  let running = ref true in
  while !running && !steps < budget do
    let gp = !g in
    incr steps;
    let baddr = addr.(gp) in
    let bins = insns_of.(gp) in
    insns := !insns + bins;
    let pc = baddr + bins in
    let op = opcode.(gp) in
    on_block ~addr:baddr ~size:(if op = Flat.onone then bins else bins + 1);
    if op = Flat.onone then g := gp + 1
    else if op = Flat.ocond then begin
      incr insns;
      let outcome = next_outcome () in
      let taken_pos = fa.(gp) in
      let taken_target = addr.(taken_pos) in
      if outcome = (fb.(gp) = 1) then begin
        emit_cond pc taken_target ~taken:true ~taken_target;
        g := taken_pos
      end
      else begin
        emit_cond pc (pc + 1) ~taken:false ~taken_target;
        let j = fc.(gp) in
        if j < 0 then g := gp + 1
        else begin
          incr insns;
          on_block ~addr:(pc + 1) ~size:1;
          emit (pc + 1) addr.(j) Event.Uncond;
          g := j
        end
      end
    end
    else if op = Flat.ojump then begin
      incr insns;
      emit pc addr.(fa.(gp)) Event.Uncond;
      g := fa.(gp)
    end
    else if op = Flat.oswitch then begin
      incr insns;
      let target = next_choice gp in
      emit pc addr.(target) Event.Indirect_jump;
      g := target
    end
    else if op = Flat.ocall then begin
      incr insns;
      let callee = fa.(gp) in
      emit pc addr.(callee) Event.Call;
      push fb.(gp) fc.(gp);
      g := callee
    end
    else if op = Flat.ovcall then begin
      incr insns;
      let callee = next_choice gp in
      emit pc addr.(callee) Event.Indirect_call;
      push fb.(gp) fc.(gp);
      g := callee
    end
    else if op = Flat.oret then begin
      incr insns;
      if !sp = 0 then begin
        emit pc 0 Event.Ret;
        running := false
      end
      else begin
        decr sp;
        let jump_pc = !s_jump.(!sp) in
        let resume = !s_res.(!sp) in
        if jump_pc < 0 then begin
          emit pc addr.(resume) Event.Ret;
          g := resume
        end
        else begin
          emit pc jump_pc Event.Ret;
          incr insns;
          on_block ~addr:jump_pc ~size:1;
          emit jump_pc addr.(resume) Event.Uncond;
          g := resume
        end
      end
    end
    else begin
      (* ohalt *)
      incr insns;
      running := false
    end
  done;
  Ba_obs.Counter.incr m_replays;
  Ba_obs.Counter.add m_steps !steps;
  Ba_obs.Counter.add m_insns !insns;
  Ba_obs.Counter.add m_branches !branches;
  {
    Engine.insns = !insns;
    steps = !steps;
    branches = !branches;
    completed = tr.Trace.completed;
  }
