type scheme = Global | Local

(* Both schemes keep their history registers in [histories], read at
   [local_index]: the global scheme has a single register, which every pc
   indexes, so the per-branch step has no scheme dispatch. *)
type t = {
  pattern : Counter2.t array;
  pattern_mask : int;
  histories : int array;
  scheme : scheme;  (* names the table; the step never reads it *)
  (* local books, flushed to the predict.two_level.* counters once per run *)
  mutable s_lookups : int;
  mutable s_hits : int;
  mutable s_sat_hi : int;
  mutable s_sat_lo : int;
}

let check_bits bits =
  if bits < 1 || bits > 24 then invalid_arg "Two_level: history bits out of range"

let make ~history_bits ~branch_entries scheme =
  {
    pattern = Array.make (1 lsl history_bits) Counter2.initial;
    pattern_mask = (1 lsl history_bits) - 1;
    histories = Array.make branch_entries 0;
    scheme;
    s_lookups = 0;
    s_hits = 0;
    s_sat_hi = 0;
    s_sat_lo = 0;
  }

let create_global ?(history_bits = 12) () =
  check_bits history_bits;
  make ~history_bits ~branch_entries:1 Global

let create_local ?(history_bits = 12) ?(branch_entries = 1024) () =
  check_bits history_bits;
  if branch_entries <= 0 || branch_entries land (branch_entries - 1) <> 0 then
    invalid_arg "Two_level.create_local: branch_entries must be a power of two";
  make ~history_bits ~branch_entries Local

(* Pure indexing, shared with static conflict analysis: which per-branch
   history register the local scheme consults for an address.  Two branches
   mapping to the same register interleave their outcome streams. *)
let local_index ~branch_entries ~pc = pc land (branch_entries - 1)

let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.two_level.lookup"
let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.two_level.hit"

let history t ~pc = local_index ~branch_entries:(Array.length t.histories) ~pc

let predict t ~pc =
  t.s_lookups <- t.s_lookups + 1;
  Counter2.predict t.pattern.(t.histories.(history t ~pc) land t.pattern_mask)

(* Predict, train and shift the history with both indices computed once.
   Counts no lookup: [step] does, [update] (training only) does not. *)
let train t ~pc ~taken =
  let j = history t ~pc in
  let h = t.histories.(j) in
  let i = h land t.pattern_mask in
  let c = t.pattern.(i) in
  let predicted = Counter2.predict c in
  if predicted = taken then t.s_hits <- t.s_hits + 1;
  if taken then begin if (c :> int) = 3 then t.s_sat_hi <- t.s_sat_hi + 1 end
  else if (c :> int) = 0 then t.s_sat_lo <- t.s_sat_lo + 1;
  t.pattern.(i) <- Counter2.update c ~taken;
  t.histories.(j) <- ((h lsl 1) lor Bool.to_int taken) land t.pattern_mask;
  predicted

let step t ~pc ~taken =
  t.s_lookups <- t.s_lookups + 1;
  train t ~pc ~taken

let update t ~pc ~taken = ignore (train t ~pc ~taken : bool)

let name t =
  match t.scheme with
  | Global -> Printf.sprintf "global-2level-%d" (t.pattern_mask + 1)
  | Local -> Printf.sprintf "local-2level-%d" (t.pattern_mask + 1)

let flush_obs t =
  Ba_obs.Counter.add m_lookup t.s_lookups;
  Ba_obs.Counter.add m_hit t.s_hits;
  Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo;
  t.s_lookups <- 0;
  t.s_hits <- 0;
  t.s_sat_hi <- 0;
  t.s_sat_lo <- 0
