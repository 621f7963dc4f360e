(* Direct-mapped and gshare tables share one index, [(pc lxor history) land
   mask]: the direct table simply keeps a zero history (its history mask is
   0), so the per-branch step has no scheme dispatch. *)
type t = {
  table : Counter2.t array;
  owner : int array;  (* last updating pc per entry; -1 = untouched. Metric-only. *)
  history_mask : int;  (* 0 = direct-mapped *)
  mutable history : int;
  (* local books, flushed to the predict.pht.* counters once per run *)
  mutable s_lookups : int;
  mutable s_hits : int;
  mutable s_aliases : int;
  mutable s_sat_hi : int;
  mutable s_sat_lo : int;
}

let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.pht.lookup"
let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.pht.hit"
let m_alias = Ba_obs.Counter.make ~unit_:"events" "predict.pht.alias"

let check_power_of_two n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Pht: entry count must be a positive power of two"

let make ~entries ~history_mask =
  {
    table = Array.make entries Counter2.initial;
    owner = Array.make entries (-1);
    history_mask;
    history = 0;
    s_lookups = 0;
    s_hits = 0;
    s_aliases = 0;
    s_sat_hi = 0;
    s_sat_lo = 0;
  }

let create_direct ~entries =
  check_power_of_two entries;
  make ~entries ~history_mask:0

let create_gshare ~entries ~history_bits =
  check_power_of_two entries;
  if history_bits < 1 || history_bits > 30 then
    invalid_arg "Pht.create_gshare: history_bits out of range";
  make ~entries ~history_mask:((1 lsl history_bits) - 1)

(* The pure indexing functions.  Simulation (below, through [gshare_index]
   with a history that stays 0 for the direct table, where it equals
   [direct_index]) and static conflict analysis (Ba_conflict) both go
   through these, so the two views of "which counter does this branch hash
   to" cannot drift apart. *)
let direct_index ~entries ~pc = pc land (entries - 1)
let gshare_index ~entries ~history ~pc = (pc lxor history) land (entries - 1)

let index t ~pc = gshare_index ~entries:(Array.length t.table) ~history:t.history ~pc

let predict t ~pc =
  t.s_lookups <- t.s_lookups + 1;
  Counter2.predict t.table.(index t ~pc)

(* Predict, train and shift the history with the index computed once.
   Counts no lookup: [step] does, [update] (training only) does not. *)
let train t ~pc ~taken =
  let i = index t ~pc in
  let c = t.table.(i) in
  let predicted = Counter2.predict c in
  if predicted = taken then t.s_hits <- t.s_hits + 1;
  let o = t.owner.(i) in
  if o >= 0 && o <> pc then t.s_aliases <- t.s_aliases + 1;
  t.owner.(i) <- pc;
  if taken then begin if (c :> int) = 3 then t.s_sat_hi <- t.s_sat_hi + 1 end
  else if (c :> int) = 0 then t.s_sat_lo <- t.s_sat_lo + 1;
  t.table.(i) <- Counter2.update c ~taken;
  t.history <- ((t.history lsl 1) lor Bool.to_int taken) land t.history_mask;
  predicted

let step t ~pc ~taken =
  t.s_lookups <- t.s_lookups + 1;
  train t ~pc ~taken

let update t ~pc ~taken = ignore (train t ~pc ~taken : bool)

let entries t = Array.length t.table

let flush_obs t =
  Ba_obs.Counter.add m_lookup t.s_lookups;
  Ba_obs.Counter.add m_hit t.s_hits;
  Ba_obs.Counter.add m_alias t.s_aliases;
  Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo;
  t.s_lookups <- 0;
  t.s_hits <- 0;
  t.s_aliases <- 0;
  t.s_sat_hi <- 0;
  t.s_sat_lo <- 0
