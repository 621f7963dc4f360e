(* Four flat arrays indexed by slot = set * assoc + way, so a probe or a
   training step reads and writes ints in place and allocates nothing. *)
type t = {
  tags : int array;  (* full pc; -1 = invalid *)
  targets : int array;
  counters : Counter2.t array;
  stamps : int array;  (* LRU clock; 0 = never used *)
  assoc : int;
  set_mask : int;
  mutable clock : int;
  (* local books, flushed to the predict.btb.* counters once per run *)
  mutable s_lookups : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_allocs : int;
  mutable s_evicts : int;
  mutable s_sat_hi : int;
  mutable s_sat_lo : int;
}

let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.btb.lookup"
let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.btb.hit"
let m_miss = Ba_obs.Counter.make ~unit_:"events" "predict.btb.miss"
let m_alloc = Ba_obs.Counter.make ~unit_:"events" "predict.btb.alloc"
let m_evict = Ba_obs.Counter.make ~unit_:"events" "predict.btb.evict"

let create ~entries ~assoc =
  if assoc <= 0 || entries <= 0 || entries mod assoc <> 0 then
    invalid_arg "Btb.create: entries must be a positive multiple of assoc";
  let n_sets = entries / assoc in
  if n_sets land (n_sets - 1) <> 0 then
    invalid_arg "Btb.create: set count must be a power of two";
  {
    tags = Array.make entries (-1);
    targets = Array.make entries 0;
    counters = Array.make entries Counter2.initial;
    stamps = Array.make entries 0;
    assoc;
    set_mask = n_sets - 1;
    clock = 0;
    s_lookups = 0;
    s_hits = 0;
    s_misses = 0;
    s_allocs = 0;
    s_evicts = 0;
    s_sat_hi = 0;
    s_sat_lo = 0;
  }

(* Pure indexing, shared with static conflict analysis: the tag is the full
   branch address, the set is its low bits. *)
let set_index ~entries ~assoc ~pc = pc land ((entries / assoc) - 1)
let tag_of ~pc = pc

(* First way of the set holding [tag], or -1.  Top level with every input
   an argument, so the scan builds no closure. *)
let rec scan tags tag i stop = if i = stop then -1 else if tags.(i) = tag then i else scan tags tag (i + 1) stop

let find t ~pc =
  let base = (pc land t.set_mask) * t.assoc in
  scan t.tags (tag_of ~pc) base (base + t.assoc)

let probe t ~pc =
  t.s_lookups <- t.s_lookups + 1;
  let slot = find t ~pc in
  if slot >= 0 then t.s_hits <- t.s_hits + 1 else t.s_misses <- t.s_misses + 1;
  slot

let target t slot = t.targets.(slot)
let predicts_taken t slot = Counter2.predict t.counters.(slot)

let touch t slot =
  t.clock <- t.clock + 1;
  t.stamps.(slot) <- t.clock

let train t ~slot ~pc ~taken ~target =
  if slot >= 0 then begin
    let c = t.counters.(slot) in
    if taken then begin if (c :> int) = 3 then t.s_sat_hi <- t.s_sat_hi + 1 end
    else if (c :> int) = 0 then t.s_sat_lo <- t.s_sat_lo + 1;
    t.counters.(slot) <- Counter2.update c ~taken;
    if taken then t.targets.(slot) <- target;
    touch t slot
  end
  else if taken then begin
    (* Allocate, evicting the set's first least-recently-used way (invalid
       ways have stamp 0 and lose ties, so they are filled first). *)
    let base = (pc land t.set_mask) * t.assoc in
    let victim = ref base in
    for w = base + 1 to base + t.assoc - 1 do
      if t.stamps.(w) < t.stamps.(!victim) then victim := w
    done;
    let v = !victim in
    t.s_allocs <- t.s_allocs + 1;
    if t.tags.(v) >= 0 then t.s_evicts <- t.s_evicts + 1;
    t.tags.(v) <- tag_of ~pc;
    t.targets.(v) <- target;
    t.counters.(v) <- Counter2.strongly_taken;
    touch t v
  end

let update t ~pc ~taken ~target = train t ~slot:(find t ~pc) ~pc ~taken ~target

let entries t = Array.length t.tags
let assoc t = t.assoc

let occupancy t = Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags

let flush_obs t =
  Ba_obs.Counter.add m_lookup t.s_lookups;
  Ba_obs.Counter.add m_hit t.s_hits;
  Ba_obs.Counter.add m_miss t.s_misses;
  Ba_obs.Counter.add m_alloc t.s_allocs;
  Ba_obs.Counter.add m_evict t.s_evicts;
  Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo;
  t.s_lookups <- 0;
  t.s_hits <- 0;
  t.s_misses <- 0;
  t.s_allocs <- 0;
  t.s_evicts <- 0;
  t.s_sat_hi <- 0;
  t.s_sat_lo <- 0
