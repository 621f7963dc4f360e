open Ba_ir

type block_counts = {
  mutable visits : int;
  mutable n_true : int;  (* conditionals only *)
  mutable n_false : int;
  cases : int array;  (* switches only; empty otherwise *)
}

type t = { program : Program.t; counts : block_counts array array }

let create program =
  let proc_counts p =
    Array.map
      (fun (blk : Block.t) ->
        let cases =
          match blk.term with
          | Term.Switch { targets } -> Array.make (Array.length targets) 0
          | _ -> [||]
        in
        { visits = 0; n_true = 0; n_false = 0; cases })
      p.Proc.blocks
  in
  { program; counts = Array.map proc_counts program.Program.procs }

let program t = t.program

let record_visit t p b =
  let c = t.counts.(p).(b) in
  c.visits <- c.visits + 1

let record_cond t p b outcome =
  let c = t.counts.(p).(b) in
  if outcome then c.n_true <- c.n_true + 1 else c.n_false <- c.n_false + 1

let record_switch t p b case =
  let c = t.counts.(p).(b) in
  c.cases.(case) <- c.cases.(case) + 1

let visits t p b = t.counts.(p).(b).visits

let cond_counts t p b =
  let blk = Proc.block (Program.proc t.program p) b in
  match blk.Block.term with
  | Term.Cond _ ->
    let c = t.counts.(p).(b) in
    (c.n_true, c.n_false)
  | _ -> invalid_arg "Profile.cond_counts: not a conditional block"

let switch_counts t p b =
  let blk = Proc.block (Program.proc t.program p) b in
  match blk.Block.term with
  | Term.Switch _ -> Array.copy t.counts.(p).(b).cases
  | _ -> invalid_arg "Profile.switch_counts: not a switch block"

let edge_weight t p (e : Edge.t) =
  let c = t.counts.(p).(e.src) in
  match e.kind with
  | Edge.On_true -> c.n_true
  | Edge.On_false -> c.n_false
  | Edge.Flow -> c.visits
  | Edge.Case i -> c.cases.(i)

let alignable_edges t p =
  let proc = Program.proc t.program p in
  let weighted =
    Edge.of_proc proc
    |> List.filter Edge.is_alignable
    |> List.map (fun e -> (e, edge_weight t p e))
  in
  (* Sort by decreasing weight; keep the original edge order among equals so
     the algorithms are deterministic. *)
  List.stable_sort (fun (_, w1) (_, w2) -> compare w2 w1) weighted

let likely_taken t p b =
  let n_true, n_false = cond_counts t p b in
  n_true >= n_false

let merge = function
  | [] -> invalid_arg "Profile.merge: empty list"
  | first :: rest as all ->
    List.iter
      (fun p ->
        if p.program != first.program then
          invalid_arg "Profile.merge: profiles of different programs")
      rest;
    let out = create first.program in
    List.iter
      (fun p ->
        Array.iteri
          (fun pid blocks ->
            Array.iteri
              (fun b (c : block_counts) ->
                let o = out.counts.(pid).(b) in
                o.visits <- o.visits + c.visits;
                o.n_true <- o.n_true + c.n_true;
                o.n_false <- o.n_false + c.n_false;
                Array.iteri (fun i n -> o.cases.(i) <- o.cases.(i) + n) c.cases)
              blocks)
          p.counts)
      all;
    out

