open Ba_trace

(* Layout-independent execution summaries, extracted from one replay-shaped
   walk of the trace over the program's original image.

   A {e site} is a semantic block, numbered [pbase.(proc) + block] — the
   global position the block has in the identity layout, which is also
   layout-invariant.  The walk keeps per-site execution counts, the
   conditional-direction substream and the call/return substream: the
   inputs of every closed-form and substream price {!Eval} computes for a
   candidate layout's geometry. *)

type t = {
  program : Ba_ir.Program.t;
  pbase : int array;  (** first site of each procedure *)
  n_sites : int;
  site_proc : int array;
  site_block : int array;
  opcode : int array;  (** semantic terminator class per site (Flat codes) *)
  ras_recs : int array;
      (** 2 * site per call/vcall, 2 * (frame + 1) + 1 per return *)
  cond_recs : int array;  (** (site lsl 1) lor outcome, conditionals only *)
  n_exec : int array;  (** per site *)
  n_true : int array;  (** semantic [true] outcomes, per conditional site *)
  n_false : int array;
  n_rets_to : int array;  (** frames pushed at this call site and popped *)
  n_underflow : int;  (** returns executed with an empty frame stack *)
  max_depth : int;  (** deepest call-stack the run reached *)
}

module Grow = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 1024 0; len = 0 }

  let push t v =
    if t.len = Array.length t.a then begin
      let a = Array.make (2 * t.len) 0 in
      Array.blit t.a 0 a 0 t.len;
      t.a <- a
    end;
    t.a.(t.len) <- v;
    t.len <- t.len + 1

  let finish t = Array.sub t.a 0 t.len
end

(* Mirrors [Replay.run]'s control flow over the identity layout, where
   global position = site.  Any drift from the replayer here would show up
   as a penalty mismatch in the differential wall. *)
let build program (tr : Trace.t) =
  let flat = Flat.of_image (Ba_layout.Image.original program) in
  let opcode = flat.Flat.opcode in
  let fa = flat.Flat.a and fb = flat.Flat.b and fc = flat.Flat.c in
  let succ = flat.Flat.succ in
  let pbase = flat.Flat.pbase in
  let n_sites = Array.length opcode in
  let site_proc = Array.make n_sites 0 in
  let site_block = Array.make n_sites 0 in
  let nprocs = Array.length pbase in
  for p = 0 to nprocs - 1 do
    let hi = if p + 1 < nprocs then pbase.(p + 1) else n_sites in
    for s = pbase.(p) to hi - 1 do
      site_proc.(s) <- p;
      site_block.(s) <- s - pbase.(p)
    done
  done;
  let ras_recs = Grow.create () in
  let cond_recs = Grow.create () in
  let n_exec = Array.make n_sites 0 in
  let n_true = Array.make n_sites 0 in
  let n_false = Array.make n_sites 0 in
  let n_rets_to = Array.make n_sites 0 in
  let n_underflow = ref 0 in
  let max_depth = ref 0 in
  (* decision cursors, as in Replay.run *)
  let conds = tr.Trace.conds in
  let cond_i = ref 0 in
  let next_outcome () =
    let i = !cond_i in
    if i >= tr.Trace.n_conds then
      failwith "Ba_delta.Stream: trace exhausted (conditional outcomes)";
    cond_i := i + 1;
    (Char.code (Bytes.unsafe_get conds (i lsr 3)) lsr (i land 7)) land 1 = 1
  in
  let choice_bytes = tr.Trace.choices in
  let choices_len = Bytes.length choice_bytes in
  let choice_off = ref 0 in
  let next_choice () =
    let off = ref !choice_off in
    let shift = ref 0 and acc = ref 0 and fin = ref false in
    while not !fin do
      if !off >= choices_len then
        failwith "Ba_delta.Stream: trace exhausted (switch/vcall indices)";
      let byte = Char.code (Bytes.unsafe_get choice_bytes !off) in
      incr off;
      acc := !acc lor ((byte land 0x7F) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then fin := true
    done;
    choice_off := !off;
    !acc
  in
  (* frame stack of (call site, resume site) *)
  let cap = ref 64 in
  let s_site = ref (Array.make !cap 0) in
  let s_res = ref (Array.make !cap 0) in
  let sp = ref 0 in
  let push site resume =
    if !sp = !cap then begin
      let cap' = !cap * 2 in
      let a = Array.make cap' 0 and r = Array.make cap' 0 in
      Array.blit !s_site 0 a 0 !cap;
      Array.blit !s_res 0 r 0 !cap;
      s_site := a;
      s_res := r;
      cap := cap'
    end;
    !s_site.(!sp) <- site;
    !s_res.(!sp) <- resume;
    incr sp;
    if !sp > !max_depth then max_depth := !sp
  in
  let budget = tr.Trace.steps in
  let steps = ref 0 in
  let g = ref flat.Flat.entry in
  let running = ref true in
  while !running && !steps < budget do
    let gp = !g in
    incr steps;
    n_exec.(gp) <- n_exec.(gp) + 1;
    let op = opcode.(gp) in
    if op = Flat.onone then g := gp + 1
    else if op = Flat.ocond then begin
      let outcome = next_outcome () in
      Grow.push cond_recs ((gp lsl 1) lor (if outcome then 1 else 0));
      if outcome then n_true.(gp) <- n_true.(gp) + 1
      else n_false.(gp) <- n_false.(gp) + 1;
      if outcome = (fb.(gp) = 1) then g := fa.(gp)
      else begin
        let j = fc.(gp) in
        if j < 0 then g := gp + 1 else g := j
      end
    end
    else if op = Flat.ojump then g := fa.(gp)
    else if op = Flat.oswitch then g := succ.(fa.(gp) + next_choice ())
    else if op = Flat.ocall || op = Flat.ovcall then begin
      Grow.push ras_recs (gp lsl 1);
      push gp fc.(gp);
      g := if op = Flat.ocall then fa.(gp) else succ.(fa.(gp) + next_choice ())
    end
    else if op = Flat.oret then begin
      if !sp = 0 then begin
        Grow.push ras_recs 1;
        incr n_underflow;
        running := false
      end
      else begin
        decr sp;
        let f = !s_site.(!sp) in
        Grow.push ras_recs (((f + 1) lsl 1) lor 1);
        n_rets_to.(f) <- n_rets_to.(f) + 1;
        g := !s_res.(!sp)
      end
    end
    else (* ohalt *) running := false
  done;
  {
    program;
    pbase;
    n_sites;
    site_proc;
    site_block;
    opcode = Array.copy opcode;
    ras_recs = Grow.finish ras_recs;
    cond_recs = Grow.finish cond_recs;
    n_exec;
    n_true;
    n_false;
    n_rets_to;
    n_underflow = !n_underflow;
    max_depth = !max_depth;
  }
