open Ba_layout
open Ba_predict
open Ba_conflict
module Bep = Ba_sim.Bep

type row = {
  proc : Ba_ir.Term.proc_id;
  block : Ba_ir.Term.block_id;
  pc : int;
  pooled : int;
  weight : int;
  what : string;
  penalty : Domain.interval;
}

type t = {
  arch : Bep.arch;
  rows : row list;
  extra_lo : int;
  total : Domain.interval;
}

let m_analyses = Ba_obs.Counter.make ~unit_:"runs" "bound.analyses"
let m_sites = Ba_obs.Counter.make ~unit_:"sites" "bound.sites"
let m_lower = Ba_obs.Counter.make ~unit_:"cycles" "bound.lower_cycles"
let m_upper = Ba_obs.Counter.make ~unit_:"cycles" "bound.upper_cycles"

(* The four transfer-function families.  Gshare, GAg and PAg all index
   their pattern table through dynamic history state, so no static grouping
   of sites is sound for them; they share the near-vacuous [Dyn] domain. *)
type domain_kind =
  | Rule of Static_rule.t
  | Table of int  (* direct-indexed PHT, entry count *)
  | Dyn
  | Buffer of int * int  (* entries, assoc *)

let domain_of = function
  | Bep.Static_fallthrough -> Rule Static_rule.Fallthrough
  | Bep.Static_btfnt -> Rule Static_rule.Btfnt
  | Bep.Static_likely bits -> Rule (Static_rule.Likely (Likely_bits.hint bits))
  | Bep.Pht_direct { entries } -> Table entries
  | Bep.Pht_gshare _ | Bep.Pht_global _ | Bep.Pht_local _ -> Dyn
  | Bep.Btb_arch { entries; assoc } -> Buffer (entries, assoc)

let max0 x = if x > 0 then x else 0

(* Conditional-branch cost from a mispredict interval, static/PHT pricing:
   a taken execution costs a misfetch when predicted and a mispredict when
   not; a not-taken execution costs a mispredict when predicted taken and
   nothing otherwise.  With [m] total mispredicts free to fall on either
   leg, the cheapest assignment puts them on taken executions (upgrading a
   misfetch, net [mp - mf] each) and the dearest on not-taken ones. *)
let cond_identity ~mf ~mp ~w_t ~w_f (m : Domain.interval) =
  let m_lo = min m.Domain.lo (w_t + w_f) and m_hi = min m.Domain.hi (w_t + w_f) in
  let lo = (mf * w_t) + ((mp - mf) * min m_lo w_t) + (mp * max0 (m_lo - w_t)) in
  let on_fall = min m_hi w_f in
  let hi = (mf * w_t) + (mp * on_fall) + ((mp - mf) * (m_hi - on_fall)) in
  Domain.make lo hi

let analyze ~arch ~profile image =
  Ba_obs.Span.with_ "bound" @@ fun () ->
  let mf = Bep.misfetch_cycles and mp = Bep.mispredict_cycles in
  let summary = Site.extract ~profile image in
  let bases = image.Image.bases in
  let main = image.Image.program.Ba_ir.Program.main in
  let domain = domain_of arch in
  (* Call-continuation jump weights are recorded once per call, executed
     once per return: the shortfall is the frames still open when the run
     ends, bounded by the static call-chain depth.  Unbounded (recursive)
     call graphs get no credit. *)
  let cont_slack =
    match summary.Site.ras_bound with Some b -> b | None -> max_int
  in
  (* Every architecture shares the return stack: when the static call chain
     fits the stack, every pop matches its push, so non-main returns are
     exactly correct and main's final return pops an empty stack. *)
  let ras_exact =
    match summary.Site.ras_bound with
    | Some b -> b <= Bep.default_return_stack_depth
    | None -> false
  in
  (* BTB sets that can never evict: at most [assoc] allocating sites map
     there, and invalid ways lose LRU ties, so allocations only fill. *)
  let conflicted =
    match domain with
    | Buffer (entries, assoc) ->
      let tbl = Hashtbl.create 16 in
      (match
         Analyze.of_summary
           ~suite:[ Structure.Btb { entries; assoc } ]
           ~bases summary
       with
      | [ { Analyze.body = Analyze.Map m; _ } ] ->
        List.iter (fun c -> Hashtbl.replace tbl c.Analyze.index ()) m.Analyze.conflicts
      | _ -> ());
      tbl
    | _ -> Hashtbl.create 1
  in
  let rows = ref [] in
  let emit ?(pooled = 1) ~(site : Site.t) ~pc ~weight what penalty =
    rows :=
      { proc = site.Site.proc; block = site.Site.block; pc; pooled; weight;
        what; penalty }
      :: !rows
  in
  (* Direct-PHT pooling: aliased conditionals share one counter, so their
     outcome batches must be bounded jointly; each group is one row. *)
  let pht_groups : (int, int * int * Site.t * int) Hashtbl.t = Hashtbl.create 64 in
  let ret_penalty (site : Site.t) w =
    if ras_exact then
      if site.Site.proc = main then Domain.exact (mp * w) else Domain.zero
    else Domain.make 0 (mp * w)
  in
  List.iter
    (fun (site : Site.t) ->
      let w = site.Site.weight in
      if w > 0 then begin
        let pc = bases.(site.Site.proc) + site.Site.offset in
        match (site.Site.kind, domain) with
        | Site.Ret, _ -> emit ~site ~pc ~weight:w "ret" (ret_penalty site w)
        | Site.Cond { taken_on; w_true; w_false; taken_off }, _ -> begin
          let w_t = if taken_on then w_true else w_false in
          let w_f = w - w_t in
          match domain with
          | Rule rule ->
            let taken_target = bases.(site.Site.proc) + taken_off in
            let cost =
              if Static_rule.predict_taken rule ~pc ~taken_target then
                (mf * w_t) + (mp * w_f)
              else mp * w_t
            in
            emit ~site ~pc ~weight:w "cond" (Domain.exact cost)
          | Table entries ->
            let idx = Pht.direct_index ~entries ~pc in
            let t0, f0, s0, n0 =
              match Hashtbl.find_opt pht_groups idx with
              | Some g -> g
              | None -> (0, 0, site, 0)
            in
            Hashtbl.replace pht_groups idx (t0 + w_t, f0 + w_f, s0, n0 + 1)
          | Dyn ->
            emit ~site ~pc ~weight:w "cond"
              (Domain.make (mf * w_t) (mp * w))
          | Buffer (entries, assoc) ->
            (* A BTB hit on a correctly-predicted direction is free; every
               error is a full mispredict.  The first taken execution
               always misses (nothing else allocates this tag). *)
            if w_t = 0 then emit ~site ~pc ~weight:w "cond" Domain.zero
            else begin
              let idx = Btb.set_index ~entries ~assoc ~pc in
              let m_hi =
                if Hashtbl.mem conflicted idx then
                  min w (w_t + min w_f (2 * w_t))
                else
                  1
                  + (Domain.Counter.mispredicts
                       ~state:(Counter2.strongly_taken :> int)
                       ~taken:(w_t - 1) ~not_taken:w_f)
                      .Domain.hi
              in
              emit ~site ~pc ~weight:w "cond" (Domain.make mp (mp * m_hi))
            end
        end
        | Site.Jump { cont }, Buffer (entries, assoc) ->
          (* Target and direction are fixed, so a conflict-free set hits on
             every execution after the allocating first one. *)
          let idx = Btb.set_index ~entries ~assoc ~pc in
          let lo_execs = if cont then max0 (w - cont_slack) else w in
          let lo = if lo_execs >= 1 then mf else 0 in
          let hi = if Hashtbl.mem conflicted idx then mf * w else mf in
          emit ~site ~pc ~weight:w (if cont then "jump-cont" else "jump")
            (Domain.make lo hi)
        | Site.Call, Buffer (entries, assoc) ->
          let idx = Btb.set_index ~entries ~assoc ~pc in
          let hi = if Hashtbl.mem conflicted idx then mf * w else mf in
          emit ~site ~pc ~weight:w "call" (Domain.make mf hi)
        | Site.Jump { cont }, _ ->
          let lo = if cont then mf * max0 (w - cont_slack) else mf * w in
          emit ~site ~pc ~weight:w (if cont then "jump-cont" else "jump")
            (Domain.make lo (mf * w))
        | Site.Call, _ -> emit ~site ~pc ~weight:w "call" (Domain.exact (mf * w))
        | Site.Switch { live_targets }, Buffer (entries, assoc) ->
          let idx = Btb.set_index ~entries ~assoc ~pc in
          let k = max 1 live_targets in
          if (not (Hashtbl.mem conflicted idx)) && k = 1 then
            emit ~site ~pc ~weight:w "switch" (Domain.exact mp)
          else emit ~site ~pc ~weight:w "switch" (Domain.make (mp * k) (mp * w))
        | Site.Switch _, _ ->
          emit ~site ~pc ~weight:w "switch" (Domain.exact (mp * w))
        | Site.Vcall, Buffer _ ->
          emit ~site ~pc ~weight:w "vcall" (Domain.make mp (mp * w))
        | Site.Vcall, _ ->
          emit ~site ~pc ~weight:w "vcall" (Domain.exact (mp * w))
      end)
    summary.Site.sites;
  (* Flush the pooled PHT groups: the shared counter starts weakly
     not-taken and serves the group's joint outcome batches in trace
     order, which the counter domain brackets over every interleaving. *)
  Hashtbl.fold (fun idx g acc -> (idx, g) :: acc) pht_groups []
  |> List.sort compare
  |> List.iter (fun (_, (w_t, w_f, site, n)) ->
         let m =
           Domain.Counter.mispredicts
             ~state:(Counter2.initial :> int)
             ~taken:w_t ~not_taken:w_f
         in
         let pc = bases.(site.Site.proc) + site.Site.offset in
         emit ~pooled:n ~site ~pc ~weight:(w_t + w_f)
           (if n = 1 then "cond" else "cond-pool")
           (cond_identity ~mf ~mp ~w_t ~w_f m));
  (* Whole-layout supplement under dynamic-history tables: every pattern
     counter starts at or below weakly-not-taken and only taken
     conditionals raise one, so the program's first taken conditional
     execution is a guaranteed mispredict — the per-site bound priced it
     as a misfetch. *)
  let any_taken_cond =
    List.exists
      (fun (s : Site.t) ->
        match s.Site.kind with
        | Site.Cond _ -> s.Site.taken_weight > 0
        | _ -> false)
      summary.Site.sites
  in
  let extra_lo = match domain with Dyn when any_taken_cond -> mp - mf | _ -> 0 in
  let rows =
    List.sort (fun a b -> compare (a.proc, a.pc, a.what) (b.proc, b.pc, b.what)) !rows
  in
  let site_total = Domain.sum (List.map (fun r -> r.penalty) rows) in
  let total =
    Domain.make
      (min (site_total.Domain.lo + extra_lo) site_total.Domain.hi)
      site_total.Domain.hi
  in
  Ba_obs.Counter.incr m_analyses;
  Ba_obs.Counter.add m_sites (List.length summary.Site.sites);
  Ba_obs.Counter.add m_lower total.Domain.lo;
  Ba_obs.Counter.add m_upper total.Domain.hi;
  { arch; rows; extra_lo; total }

let bounds ~arch ~profile image = (analyze ~arch ~profile image).total
