(* Flat [tags]/[stamps] arrays indexed by set * assoc + way, probed by a
   closure-free scan, so an access allocates nothing. *)
type t = {
  tags : int array;  (* line number; -1 = invalid *)
  stamps : int array;  (* LRU clock; 0 = never used *)
  assoc : int;
  set_mask : int;
  insns_per_line : int;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  (* flush_obs reports deltas since the previous flush *)
  mutable flushed_accesses : int;
  mutable flushed_misses : int;
}

let create ?(lines = 256) ?(insns_per_line = 8) ?(assoc = 1) () =
  if lines <= 0 || assoc <= 0 || lines mod assoc <> 0 then
    invalid_arg "Icache.create: lines must be a positive multiple of assoc";
  let n_sets = lines / assoc in
  if n_sets land (n_sets - 1) <> 0 then
    invalid_arg "Icache.create: set count must be a power of two";
  if insns_per_line <= 0 then invalid_arg "Icache.create: bad line size";
  {
    tags = Array.make lines (-1);
    stamps = Array.make lines 0;
    assoc;
    set_mask = n_sets - 1;
    insns_per_line;
    clock = 0;
    accesses = 0;
    misses = 0;
    flushed_accesses = 0;
    flushed_misses = 0;
  }

let m_access = Ba_obs.Counter.make ~unit_:"lines" "predict.icache.access"
let m_miss = Ba_obs.Counter.make ~unit_:"lines" "predict.icache.miss"

(* Pure indexing, shared with static conflict analysis. *)
let line_of ~insns_per_line ~addr = addr / insns_per_line
let set_index ~lines ~assoc ~line = line land ((lines / assoc) - 1)

let rec scan tags line i stop = if i = stop then -1 else if tags.(i) = line then i else scan tags line (i + 1) stop

let access_line t line_no =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let base = (line_no land t.set_mask) * t.assoc in
  let way = scan t.tags line_no base (base + t.assoc) in
  if way >= 0 then t.stamps.(way) <- t.clock
  else begin
    t.misses <- t.misses + 1;
    (* Evict the LRU way (invalid ways have stamp 0 and lose ties). *)
    let victim = ref base in
    for w = base + 1 to base + t.assoc - 1 do
      if t.stamps.(w) < t.stamps.(!victim) then victim := w
    done;
    t.tags.(!victim) <- line_no;
    t.stamps.(!victim) <- t.clock
  end

let touch_range t ~addr ~size =
  if size <= 0 then 0
  else begin
    let before = t.misses in
    let first = line_of ~insns_per_line:t.insns_per_line ~addr in
    let last = line_of ~insns_per_line:t.insns_per_line ~addr:(addr + size - 1) in
    for line = first to last do
      access_line t line
    done;
    t.misses - before
  end

let misses t = t.misses
let accesses t = t.accesses

let miss_rate t = if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let flush_obs t =
  Ba_obs.Counter.add m_access (t.accesses - t.flushed_accesses);
  Ba_obs.Counter.add m_miss (t.misses - t.flushed_misses);
  t.flushed_accesses <- t.accesses;
  t.flushed_misses <- t.misses
