open Ba_layout

(* A dense per-pc table: 0 = not a conditional branch, 1 = hinted not
   taken, 2 = hinted taken.  [hint] is one bounds-checked byte read. *)
type t = { hints : Bytes.t; count : int }

let iter_conds (image : Image.t) f =
  Array.iteri
    (fun p (linear : Linear.t) ->
      Array.iter
        (fun (lb : Linear.lblock) ->
          match lb.Linear.term with
          | Linear.Lcond { taken_on; _ } -> f p lb taken_on
          | Linear.Lnone | Linear.Ljump _ | Linear.Lswitch _ | Linear.Lcall _
          | Linear.Lvcall _ | Linear.Lret | Linear.Lhalt -> ())
        linear.Linear.blocks)
    image.Image.linears

let build (image : Image.t) profile =
  let size = ref image.Image.total_size in
  iter_conds image (fun _ lb _ -> size := Int.max !size (Linear.branch_pc lb + 1));
  let hints = Bytes.make !size '\000' in
  let count = ref 0 in
  iter_conds image (fun p lb taken_on ->
      let n_true, n_false = Ba_cfg.Profile.cond_counts profile p lb.Linear.src in
      let majority_outcome = n_true >= n_false in
      let pc = Linear.branch_pc lb in
      if Bytes.get hints pc = '\000' then incr count;
      Bytes.set hints pc (if majority_outcome = taken_on then '\002' else '\001'));
  { hints; count = !count }

let hint t pc =
  let h = if pc >= 0 && pc < Bytes.length t.hints then Bytes.get t.hints pc else '\000' in
  if h = '\000' then invalid_arg (Printf.sprintf "Likely_bits.hint: %d is not a conditional branch" pc);
  h = '\002'

let count t = t.count
