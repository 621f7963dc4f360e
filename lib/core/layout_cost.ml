open Ba_layout

(* Per-position contribution, one field per cost category.  The
   whole-layout fold and the per-position view both read these, so the
   public entry points cannot drift apart. *)
type site = {
  s_straight : float;
  s_cond : float;
  s_uncond : float;
  s_calls : float;
  s_indirect : float;
  s_returns : float;
}

let zero_site =
  {
    s_straight = 0.0; s_cond = 0.0; s_uncond = 0.0; s_calls = 0.0;
    s_indirect = 0.0; s_returns = 0.0;
  }

let site_cost ~arch ~table ~visits ~cond_counts (linear : Linear.t) pos =
  let lb = linear.Linear.blocks.(pos) in
  let uncond_c = Cost_model.uncond_cost arch table in
  let w = float_of_int (visits lb.Linear.src) in
  let site =
    {
      zero_site with
      s_straight = w *. float_of_int lb.Linear.insns *. table.Cost_model.instruction;
    }
  in
  match lb.Linear.term with
  | Linear.Lnone -> site
  | Linear.Ljump _ -> { site with s_uncond = w *. uncond_c }
  | Linear.Lcond { taken_pos; taken_on; inserted_jump } ->
    let n_true, n_false = cond_counts lb.Linear.src in
    let w_taken, w_fall =
      if taken_on then (float_of_int n_true, float_of_int n_false)
      else (float_of_int n_false, float_of_int n_true)
    in
    (* Positions are address-ordered, so a target at or before this block
       is a backward branch. *)
    let taken_backward = taken_pos <= pos in
    let cond = Cost_model.cond_cost arch table ~w_taken ~w_fall ~taken_backward in
    let uncond =
      match inserted_jump with Some _ -> w_fall *. uncond_c | None -> 0.0
    in
    { site with s_cond = cond; s_uncond = uncond }
  | Linear.Lswitch _ ->
    { site with s_indirect = w *. Cost_model.indirect_cost arch table }
  | Linear.Lcall { cont; _ } ->
    {
      site with
      s_calls = w *. Cost_model.call_cost arch table;
      s_uncond =
        (match cont with Linear.Jump_to _ -> w *. uncond_c | Linear.Fall -> 0.0);
    }
  | Linear.Lvcall { cont; _ } ->
    {
      site with
      s_indirect = w *. Cost_model.indirect_cost arch table;
      s_uncond =
        (match cont with Linear.Jump_to _ -> w *. uncond_c | Linear.Fall -> 0.0);
    }
  | Linear.Lret -> { site with s_returns = w *. Cost_model.return_cost table }
  | Linear.Lhalt -> { site with s_returns = w *. table.Cost_model.instruction }

let site_branch s =
  s.s_cond +. s.s_uncond +. s.s_calls +. s.s_indirect +. s.s_returns

(* Sum each category over the layout, then drop the layout-independent
   straight-line total.  The summation order is fixed: every whole-layout
   price in the system is this fold, so they all agree bit for bit. *)
let branch_cost_of_sites sites =
  let straight = ref 0.0 in
  let cond = ref 0.0 in
  let uncond = ref 0.0 in
  let calls = ref 0.0 in
  let indirect = ref 0.0 in
  let returns = ref 0.0 in
  Array.iter
    (fun s ->
      straight := !straight +. s.s_straight;
      cond := !cond +. s.s_cond;
      uncond := !uncond +. s.s_uncond;
      calls := !calls +. s.s_calls;
      indirect := !indirect +. s.s_indirect;
      returns := !returns +. s.s_returns)
    sites;
  !straight +. !cond +. !uncond +. !calls +. !indirect +. !returns -. !straight

let sites ~arch ?(table = Cost_model.default_table) ~visits ~cond_counts
    (linear : Linear.t) =
  Array.mapi
    (fun pos _ -> site_cost ~arch ~table ~visits ~cond_counts linear pos)
    linear.Linear.blocks

let per_block ~arch ?table ~visits ~cond_counts linear =
  Array.map site_branch (sites ~arch ?table ~visits ~cond_counts linear)

let branch_cost ~arch ?table ~visits ~cond_counts linear =
  branch_cost_of_sites (sites ~arch ?table ~visits ~cond_counts linear)
