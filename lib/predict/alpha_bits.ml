(* Flat arrays: [tags] per stored line, and one history state per
   instruction slot at line * insns_per_line + slot, so a prediction or an
   update reads and writes ints in place and allocates nothing. *)
type t = {
  tags : int array;  (* line number held by each stored line; -1 = invalid *)
  bits : int array;
      (* per slot: [cold] = not written since the line's fill, else the
         last direction, [not_taken] or [taken] *)
  insns_per_line : int;
  line_mask : int;
  (* local books, flushed to the predict.alpha.* counters once per run *)
  mutable s_cold : int;
  mutable s_refills : int;
}

let cold = 0
let not_taken = 1
let taken_bit = 2

let create ?(lines = 256) ?(insns_per_line = 8) () =
  if lines <= 0 || lines land (lines - 1) <> 0 then
    invalid_arg "Alpha_bits.create: line count must be a power of two";
  if insns_per_line <= 0 then invalid_arg "Alpha_bits.create: bad line size";
  {
    tags = Array.make lines (-1);
    bits = Array.make (lines * insns_per_line) cold;
    insns_per_line;
    line_mask = lines - 1;
    s_cold = 0;
    s_refills = 0;
  }

(* Pure indexing, shared with static conflict analysis: which predictor
   line an address lives in (its tag), which stored line that maps to, and
   its history-bit slot within the line. *)
let line_no_of ~insns_per_line ~pc = pc / insns_per_line
let slot_of ~insns_per_line ~pc = pc mod insns_per_line
let line_index ~lines ~line_no = line_no land (lines - 1)

let m_refill = Ba_obs.Counter.make ~unit_:"events" "predict.alpha.refill"
let m_cold = Ba_obs.Counter.make ~unit_:"events" "predict.alpha.cold"

let predict t ~pc ~taken_target =
  let line_no = line_no_of ~insns_per_line:t.insns_per_line ~pc in
  let line = line_no land t.line_mask in
  let b = t.bits.((line * t.insns_per_line) + slot_of ~insns_per_line:t.insns_per_line ~pc) in
  if t.tags.(line) = line_no && b <> cold then b = taken_bit
  else begin
    t.s_cold <- t.s_cold + 1;
    taken_target <= pc (* static BT/FNT on a cold bit *)
  end

let update t ~pc ~taken =
  let line_no = line_no_of ~insns_per_line:t.insns_per_line ~pc in
  let line = line_no land t.line_mask in
  let first = line * t.insns_per_line in
  if t.tags.(line) <> line_no then begin
    t.s_refills <- t.s_refills + 1;
    t.tags.(line) <- line_no;
    Array.fill t.bits first t.insns_per_line cold
  end;
  t.bits.(first + slot_of ~insns_per_line:t.insns_per_line ~pc) <- (if taken then taken_bit else not_taken)

let flush_obs t =
  Ba_obs.Counter.add m_cold t.s_cold;
  Ba_obs.Counter.add m_refill t.s_refills;
  t.s_cold <- 0;
  t.s_refills <- 0
