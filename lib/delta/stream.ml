open Ba_exec
open Ba_trace

(* Layout-independent execution summaries, extracted from one replay of
   the trace over the program's original image.

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

(* One [Replay.run] over the identity layout, where global position =
   site.  Blocks are keyed by start address and branch events by the pc of
   the terminator that emitted them: every block holds at least one
   instruction, so the two are distinct addresses, and one table maps both
   to the site.  Inserted jumps and return-leg jumps own no site; they
   emit only unconditional events, which carry nothing the summaries need. *)
let build program (tr : Trace.t) =
  let flat = Flat.of_image (Ba_layout.Image.original program) in
  let opcode = flat.Flat.opcode and addr = flat.Flat.addr in
  let insns = flat.Flat.insns and fb = flat.Flat.b in
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
  (* past the last terminator and its inserted jump *)
  let code_end = ref 0 in
  for s = 0 to n_sites - 1 do
    code_end := Int.max !code_end (addr.(s) + insns.(s) + 2)
  done;
  let site_at = Array.make !code_end (-1) in
  for s = 0 to n_sites - 1 do
    site_at.(addr.(s)) <- s;
    if opcode.(s) <> Flat.onone then site_at.(addr.(s) + insns.(s)) <- s
  done;
  let ras_recs = Grow.create () in
  let cond_recs = Grow.create () in
  let frames = Grow.create () in
  let n_exec = Array.make n_sites 0 in
  let n_true = Array.make n_sites 0 in
  let n_false = Array.make n_sites 0 in
  let n_rets_to = Array.make n_sites 0 in
  let n_underflow = ref 0 in
  let max_depth = ref 0 in
  let on_block ~addr ~size:_ =
    let s = site_at.(addr) in
    if s >= 0 then n_exec.(s) <- n_exec.(s) + 1
  in
  let on_event { Event.pc; kind; _ } =
    match kind with
    | Event.Cond { taken; _ } ->
      let s = site_at.(pc) in
      let outcome = taken = (fb.(s) = 1) in
      Grow.push cond_recs ((s lsl 1) lor Bool.to_int outcome);
      if outcome then n_true.(s) <- n_true.(s) + 1
      else n_false.(s) <- n_false.(s) + 1
    | Event.Call | Event.Indirect_call ->
      Grow.push ras_recs (site_at.(pc) lsl 1);
      Grow.push frames site_at.(pc);
      max_depth := Int.max !max_depth frames.Grow.len
    | Event.Ret when frames.Grow.len = 0 ->
      Grow.push ras_recs 1;
      incr n_underflow
    | Event.Ret ->
      frames.Grow.len <- frames.Grow.len - 1;
      let f = frames.Grow.a.(frames.Grow.len) in
      Grow.push ras_recs (((f + 1) lsl 1) lor 1);
      n_rets_to.(f) <- n_rets_to.(f) + 1
    | Event.Uncond | Event.Indirect_jump -> ()
  in
  ignore (Replay.run ~on_event ~on_block flat tr : Engine.result);
  {
    program;
    pbase;
    n_sites;
    site_proc;
    site_block;
    opcode;
    ras_recs = Grow.finish ras_recs;
    cond_recs = Grow.finish cond_recs;
    n_exec;
    n_true;
    n_false;
    n_rets_to;
    n_underflow = !n_underflow;
    max_depth = !max_depth;
  }
