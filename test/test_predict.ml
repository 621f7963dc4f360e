(* Tests for Ba_predict: counters, static rules, PHTs, BTB, return stack,
   Alpha history bits, likely bits. *)

open Ba_predict

(* -- Counter2 ---------------------------------------------------------- *)

let test_counter_saturation () =
  let c = ref Counter2.initial in
  for _ = 1 to 10 do
    c := Counter2.update !c ~taken:true
  done;
  Alcotest.(check bool) "predicts taken" true (Counter2.predict !c);
  Alcotest.(check int) "saturates at 3" 3 (!c :> int);
  for _ = 1 to 10 do
    c := Counter2.update !c ~taken:false
  done;
  Alcotest.(check bool) "predicts not-taken" false (Counter2.predict !c);
  Alcotest.(check int) "saturates at 0" 0 (!c :> int)

let test_counter_hysteresis () =
  (* From strongly taken, a single not-taken must not flip the prediction. *)
  let c = Counter2.update Counter2.strongly_taken ~taken:false in
  Alcotest.(check bool) "still predicts taken" true (Counter2.predict c)

let test_counter_initial_not_taken () =
  Alcotest.(check bool) "cold counter predicts fall-through" false
    (Counter2.predict Counter2.initial)

(* -- Static_rule --------------------------------------------------------- *)

let test_static_rules () =
  let p rule ~pc ~tt = Static_rule.predict_taken rule ~pc ~taken_target:tt in
  Alcotest.(check bool) "fallthrough never taken" false
    (p Static_rule.Fallthrough ~pc:100 ~tt:50);
  Alcotest.(check bool) "btfnt backward taken" true (p Static_rule.Btfnt ~pc:100 ~tt:50);
  Alcotest.(check bool) "btfnt forward not taken" false (p Static_rule.Btfnt ~pc:100 ~tt:150);
  Alcotest.(check bool) "btfnt self counts backward" true (p Static_rule.Btfnt ~pc:100 ~tt:100);
  let likely = Static_rule.Likely (fun pc -> pc = 42) in
  Alcotest.(check bool) "likely hint true" true (p likely ~pc:42 ~tt:0);
  Alcotest.(check bool) "likely hint false" false (p likely ~pc:43 ~tt:0)

(* -- Pht ------------------------------------------------------------------ *)

let test_pht_learns_bias () =
  let pht = Pht.create_direct ~entries:16 in
  for _ = 1 to 4 do
    Pht.update pht ~pc:5 ~taken:true
  done;
  Alcotest.(check bool) "learned taken" true (Pht.predict pht ~pc:5);
  Alcotest.(check bool) "other entry unaffected" false (Pht.predict pht ~pc:6)

let test_pht_aliasing () =
  (* pc 5 and pc 21 collide in a 16-entry direct-mapped table. *)
  let pht = Pht.create_direct ~entries:16 in
  for _ = 1 to 4 do
    Pht.update pht ~pc:5 ~taken:true
  done;
  Alcotest.(check bool) "aliased entry shares state" true (Pht.predict pht ~pc:21)

let test_pht_rejects_bad_sizes () =
  Alcotest.(check bool) "non power of two raises" true
    (try
       ignore (Pht.create_direct ~entries:12);
       false
     with Invalid_argument _ -> true)

let test_gshare_learns_alternation () =
  (* A strictly alternating branch defeats a per-address 2-bit counter but
     is perfectly predictable from 1 bit of global history. *)
  let run pht =
    let correct = ref 0 in
    let n = 1000 in
    for i = 1 to n do
      let taken = i mod 2 = 0 in
      if Pht.predict pht ~pc:77 = taken then incr correct;
      Pht.update pht ~pc:77 ~taken
    done;
    float_of_int !correct /. 1000.0
  in
  let gshare_acc = run (Pht.create_gshare ~entries:256 ~history_bits:8) in
  let direct_acc = run (Pht.create_direct ~entries:256) in
  Alcotest.(check bool)
    (Printf.sprintf "gshare (%.2f) beats direct (%.2f) on alternation" gshare_acc direct_acc)
    true
    (gshare_acc > 0.95 && direct_acc < 0.7)

let test_gshare_history_masking () =
  let pht = Pht.create_gshare ~entries:16 ~history_bits:4 in
  (* Just exercise update/predict through enough history wrap-arounds. *)
  for i = 0 to 100 do
    ignore (Pht.predict pht ~pc:i);
    Pht.update pht ~pc:i ~taken:(i mod 3 = 0)
  done;
  Alcotest.(check int) "entries" 16 (Pht.entries pht)

(* -- Two_level --------------------------------------------------------------- *)

let test_local_learns_loop_pattern () =
  (* A branch with a fixed period-4 pattern (three taken, one not) is
     perfectly predictable from 3+ bits of its own history, even when an
     unrelated noisy branch interleaves with it. *)
  let two = Two_level.create_local ~history_bits:4 ~branch_entries:64 () in
  let noise = Ba_util.Rng.create 7 in
  let correct = ref 0 in
  let n = 2000 in
  for i = 1 to n do
    let taken = i mod 4 <> 0 in
    if Two_level.predict two ~pc:5 = taken then incr correct;
    Two_level.update two ~pc:5 ~taken;
    (* Interleaved random branch at another address. *)
    Two_level.update two ~pc:9 ~taken:(Ba_util.Rng.bool noise)
  done;
  let accuracy = float_of_int !correct /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "local accuracy %.2f on period-4 pattern" accuracy)
    true (accuracy > 0.95)

let test_global_learns_global_pattern () =
  (* With a single branch, global history equals local history: a strict
     alternation is learned perfectly. *)
  let two = Two_level.create_global ~history_bits:4 () in
  let correct = ref 0 in
  for i = 1 to 1000 do
    let taken = i mod 2 = 0 in
    if Two_level.predict two ~pc:0 = taken then incr correct;
    Two_level.update two ~pc:0 ~taken
  done;
  Alcotest.(check bool) "global learns alternation" true (!correct > 950)

let test_global_ignores_address () =
  (* Pan et al.'s degenerate scheme uses no branch address: two branches
     with the same history index the same counter. *)
  let two = Two_level.create_global ~history_bits:4 () in
  for _ = 1 to 8 do
    Two_level.update two ~pc:100 ~taken:true
  done;
  Alcotest.(check bool) "prediction shared across addresses" true
    (Two_level.predict two ~pc:100 = Two_level.predict two ~pc:999)

let test_two_level_names () =
  Alcotest.(check string) "global" "global-2level-16"
    (Two_level.name (Two_level.create_global ~history_bits:4 ()));
  Alcotest.(check string) "local" "local-2level-16"
    (Two_level.name (Two_level.create_local ~history_bits:4 ~branch_entries:8 ()))

let test_two_level_validation () =
  Alcotest.(check bool) "bad bits" true
    (try ignore (Two_level.create_global ~history_bits:0 ()); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad entries" true
    (try ignore (Two_level.create_local ~branch_entries:12 ()); false
     with Invalid_argument _ -> true)

(* -- Btb ------------------------------------------------------------------- *)

let test_btb_miss_then_hit () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  Alcotest.(check int) "cold BTB misses" (-1) (Btb.probe btb ~pc:100);
  Btb.update btb ~pc:100 ~taken:true ~target:200;
  let slot = Btb.probe btb ~pc:100 in
  Alcotest.(check bool) "hits after taken update" true (slot >= 0);
  Alcotest.(check int) "stored target" 200 (Btb.target btb slot);
  Alcotest.(check bool) "allocated strongly taken" true (Btb.predicts_taken btb slot)

let test_btb_not_taken_never_allocates () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  Btb.update btb ~pc:100 ~taken:false ~target:200;
  Alcotest.(check int) "not-taken branches are not stored" (-1) (Btb.probe btb ~pc:100);
  Alcotest.(check int) "empty" 0 (Btb.occupancy btb)

let test_btb_counter_training () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  Btb.update btb ~pc:100 ~taken:true ~target:200;
  (* Two not-taken updates drive the 2-bit counter below the threshold. *)
  Btb.update btb ~pc:100 ~taken:false ~target:200;
  Btb.update btb ~pc:100 ~taken:false ~target:200;
  let slot = Btb.probe btb ~pc:100 in
  Alcotest.(check bool) "entry survives" true (slot >= 0);
  Alcotest.(check bool) "counter trained down" false (Btb.predicts_taken btb slot)

let test_btb_lru_eviction () =
  (* 2-way set: three distinct taken branches mapping to the same set evict
     the least recently used. *)
  let btb = Btb.create ~entries:8 ~assoc:2 in
  (* set index = pc mod 4; pcs 4, 8, 12 share set 0. *)
  Btb.update btb ~pc:4 ~taken:true ~target:1;
  Btb.update btb ~pc:8 ~taken:true ~target:2;
  Btb.update btb ~pc:4 ~taken:true ~target:1;
  (* refresh 4 *)
  Btb.update btb ~pc:12 ~taken:true ~target:3;
  (* evicts 8 *)
  Alcotest.(check int) "LRU entry evicted" (-1) (Btb.probe btb ~pc:8);
  Alcotest.(check bool) "recently used entry survives" true (Btb.probe btb ~pc:4 >= 0)

let test_btb_target_update () =
  let btb = Btb.create ~entries:8 ~assoc:2 in
  Btb.update btb ~pc:4 ~taken:true ~target:1;
  Btb.update btb ~pc:4 ~taken:true ~target:9;
  let slot = Btb.probe btb ~pc:4 in
  Alcotest.(check bool) "hits" true (slot >= 0);
  Alcotest.(check int) "latest target" 9 (Btb.target btb slot)

let test_btb_bad_geometry () =
  Alcotest.(check bool) "entries % assoc" true
    (try
       ignore (Btb.create ~entries:10 ~assoc:4);
       false
     with Invalid_argument _ -> true)

(* -- Return_stack ------------------------------------------------------- *)

let test_ras_lifo () =
  let ras = Return_stack.create ~depth:4 in
  Return_stack.push ras 1;
  Return_stack.push ras 2;
  Alcotest.(check int) "pop 2" 2 (Return_stack.pop ras);
  Alcotest.(check int) "pop 1" 1 (Return_stack.pop ras);
  Alcotest.(check int) "empty" (-1) (Return_stack.pop ras)

let test_ras_overflow_wraps () =
  let ras = Return_stack.create ~depth:2 in
  Return_stack.push ras 1;
  Return_stack.push ras 2;
  Return_stack.push ras 3;
  (* overwrites 1 *)
  Alcotest.(check int) "pop 3" 3 (Return_stack.pop ras);
  Alcotest.(check int) "pop 2" 2 (Return_stack.pop ras);
  Alcotest.(check int) "oldest lost" (-1) (Return_stack.pop ras)

(* -- Alpha_bits ------------------------------------------------------------ *)

let test_alpha_bits_cold_btfnt () =
  let bits = Alpha_bits.create () in
  Alcotest.(check bool) "cold backward predicted taken" true
    (Alpha_bits.predict bits ~pc:100 ~taken_target:50);
  Alcotest.(check bool) "cold forward predicted not-taken" false
    (Alpha_bits.predict bits ~pc:100 ~taken_target:150)

let test_alpha_bits_history () =
  let bits = Alpha_bits.create () in
  Alpha_bits.update bits ~pc:100 ~taken:false;
  Alcotest.(check bool) "bit overrides BT/FNT" false
    (Alpha_bits.predict bits ~pc:100 ~taken_target:50)

let test_alpha_bits_eviction_resets () =
  let bits = Alpha_bits.create ~lines:4 ~insns_per_line:8 () in
  Alpha_bits.update bits ~pc:0 ~taken:false;
  (* pc 32 maps to the same line (4 lines x 8 insns = 32-instruction wrap). *)
  Alpha_bits.update bits ~pc:32 ~taken:true;
  Alcotest.(check bool) "evicted bit falls back to BT/FNT" true
    (Alpha_bits.predict bits ~pc:0 ~taken_target:0)

(* -- Icache ----------------------------------------------------------------- *)

let test_icache_miss_then_hit () =
  let c = Icache.create ~lines:4 ~insns_per_line:8 () in
  Alcotest.(check int) "cold miss" 1 (Icache.touch_range c ~addr:0 ~size:4);
  Alcotest.(check int) "now hot" 0 (Icache.touch_range c ~addr:4 ~size:4);
  Alcotest.(check int) "misses" 1 (Icache.misses c)

let test_icache_range_spans_lines () =
  let c = Icache.create ~lines:4 ~insns_per_line:8 () in
  (* 20 instructions starting at 4 touch lines 0, 1 and 2. *)
  Alcotest.(check int) "three cold lines" 3 (Icache.touch_range c ~addr:4 ~size:20);
  Alcotest.(check int) "accesses" 3 (Icache.accesses c)

let test_icache_capacity_eviction () =
  let c = Icache.create ~lines:2 ~insns_per_line:8 () in
  ignore (Icache.touch_range c ~addr:0 ~size:1);
  (* line 0 -> set 0 *)
  ignore (Icache.touch_range c ~addr:16 ~size:1);
  (* line 2 -> set 0: evicts line 0 (direct-mapped) *)
  Alcotest.(check int) "line 0 evicted" 1 (Icache.touch_range c ~addr:0 ~size:1)

let test_icache_associativity_helps () =
  let run assoc =
    let c = Icache.create ~lines:4 ~insns_per_line:8 ~assoc () in
    (* Two lines aliasing to the same direct-mapped set, touched
       alternately. *)
    for _ = 1 to 10 do
      ignore (Icache.touch_range c ~addr:0 ~size:1);
      ignore (Icache.touch_range c ~addr:32 ~size:1)
    done;
    Icache.misses c
  in
  let direct = run 1 and two_way = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "2-way (%d) beats direct (%d) on ping-pong" two_way direct)
    true
    (two_way = 2 && direct = 20)

let test_icache_dense_beats_sparse () =
  (* The alignment argument in miniature: the same 16 hot instructions
     packed contiguously occupy 2 lines; spread across 8 blocks at 16-insn
     strides they occupy 8 lines and no longer fit a 4-line cache. *)
  let dense = Icache.create ~lines:4 ~insns_per_line:8 () in
  let sparse = Icache.create ~lines:4 ~insns_per_line:8 () in
  for _ = 1 to 50 do
    ignore (Icache.touch_range dense ~addr:0 ~size:16);
    for b = 0 to 7 do
      ignore (Icache.touch_range sparse ~addr:(b * 16) ~size:2)
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "dense misses (%d) << sparse misses (%d)" (Icache.misses dense)
       (Icache.misses sparse))
    true
    (Icache.misses dense = 2 && Icache.misses sparse > 100)

(* -- Likely_bits ---------------------------------------------------------- *)

(* A loop: block 0's conditional (taken 5 times, then falls out), block 1's
   back jump, block 2's halt. *)
let likely_fixture () =
  let open Ba_ir in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1
          (Term.Cond { on_true = 1; on_false = 2; behavior = Behavior.Loop 5 });
        Block.make ~insns:1 (Term.Jump 0);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"likely" ~seed:1 [| main |] in
  (prog, Ba_exec.Engine.profile_program prog)

let test_likely_bits () =
  let prog, profile = likely_fixture () in
  let image = Ba_layout.Image.original prog in
  let bits = Likely_bits.build image profile in
  Alcotest.(check int) "one conditional" 1 (Likely_bits.count bits);
  (* Original layout: on_true (the majority outcome) is the fall-through, so
     the branch is likely NOT taken. *)
  let pc = Ba_layout.Linear.branch_pc (Ba_layout.Image.lblock image 0 0) in
  Alcotest.(check bool) "hint not taken" false (Likely_bits.hint bits pc);
  (* A layout that flips the sense flips the hint. *)
  let image2 =
    Ba_layout.Image.build ~profile prog [| Ba_layout.Decision.of_order [| 0; 2; 1 |] |]
  in
  let bits2 = Likely_bits.build image2 profile in
  let pc2 = Ba_layout.Linear.branch_pc (Ba_layout.Image.lblock image2 0 0) in
  Alcotest.(check bool) "flipped hint taken" true (Likely_bits.hint bits2 pc2)

let test_likely_bits_reject_other_pcs () =
  let prog, profile = likely_fixture () in
  let image = Ba_layout.Image.original prog in
  let bits = Likely_bits.build image profile in
  let rejects what pc =
    Alcotest.(check bool)
      (Printf.sprintf "%s (pc %d) raises Invalid_argument" what pc)
      true
      (match Likely_bits.hint bits pc with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "the back jump"
    (Ba_layout.Linear.branch_pc (Ba_layout.Image.lblock image 0 1));
  rejects "a straight-line instruction" (Ba_layout.Image.lblock image 0 0).Ba_layout.Linear.addr;
  rejects "one past the end of the image" image.Ba_layout.Image.total_size;
  rejects "far past the end of the image" (image.Ba_layout.Image.total_size + 100_000);
  rejects "a negative address" (-1)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"counter stays in [0,3]" ~count:300 (list bool) (fun updates ->
        let c =
          List.fold_left (fun c taken -> Counter2.update c ~taken) Counter2.initial updates
        in
        (c :> int) >= 0 && (c :> int) <= 3);
    Test.make ~name:"RAS never exceeds depth" ~count:200
      (pair (int_range 1 8) (list small_nat))
      (fun (depth, pushes) ->
        let ras = Return_stack.create ~depth in
        List.iter (Return_stack.push ras) pushes;
        Return_stack.occupancy ras <= depth);
    Test.make ~name:"BTB occupancy bounded by entries" ~count:100
      (list (pair small_nat bool))
      (fun updates ->
        let btb = Btb.create ~entries:16 ~assoc:4 in
        List.iter (fun (pc, taken) -> Btb.update btb ~pc ~taken ~target:(pc + 1)) updates;
        Btb.occupancy btb <= 16);
  ]

(* -- Conformance through Bep ------------------------------------------------
   Branches placed at chosen addresses force a known predictor effect:
   direct-mapped PHT aliasing, a gshare history collision, BTB set pressure
   and return-stack overflow.  Each stream is driven through
   [Bep.on_event], and the expected books are derived by hand in the
   comments (2-bit counters start at 1, weakly not-taken; BTB entries are
   allocated strongly taken; misfetch 1, mispredict 4). *)

module Ev = Ba_exec.Event
module Bep = Ba_sim.Bep

let cond ~pc ~taken = { Ev.pc; target = (if taken then pc - 8 else pc + 1); kind = Ev.Cond { taken; taken_target = pc - 8 } }
let jump ~pc = { Ev.pc; target = pc + 100; kind = Ev.Uncond }

let books ?(misfetches = 0) ?(mispredicts = 0) ?(cond = 0) ?(cond_taken = 0) ?(cond_correct = 0)
    ?(uncond = 0) ?(calls = 0) ?(rets = 0) ?(rets_correct = 0) () =
  [ misfetches; mispredicts; cond; cond_taken; cond_correct; uncond; calls; 0; rets; rets_correct ]

let books_of (c : Bep.counts) =
  [ c.misfetches; c.mispredicts; c.cond; c.cond_taken; c.cond_correct; c.uncond; c.calls;
    c.indirect; c.rets; c.rets_correct ]

(* Drive [events] through a fresh simulator; its books and the counters its
   flush leaves in a fresh registry. *)
let drive arch events =
  let r = Ba_obs.Registry.create () in
  let sim = Bep.create arch in
  Ba_obs.Registry.with_registry r (fun () ->
      List.iter (Bep.on_event sim) events;
      Bep.flush_obs sim);
  (books_of (Bep.counts sim), Ba_obs.Registry.counter_value r)

let pht4096 = Bep.Pht_direct { entries = 4096 }
let check_books name expected actual = Alcotest.(check (list int)) name expected actual
let repeat n l = List.concat (List.init n (fun _ -> l))

let test_conformance_pht_aliasing () =
  (* A (pc 0x100) is always taken, B always falls through.  At pc 0x101 B
     has its own counter: A mispredicts once (1 -> 2) and then predicts
     taken correctly, paying a misfetch (3); B's cold counter predicts
     not-taken correctly every time.  At pc 0x100 + 4096 B shares A's
     counter, which then ping-pongs 1 -> 2 -> 1: every one of the eight
     predictions is wrong, and every update after the first finds the
     entry owned by the other branch (7 alias transitions). *)
  let stream b = repeat 4 [ cond ~pc:0x100 ~taken:true; cond ~pc:b ~taken:false ] in
  let apart, apart_metric = drive pht4096 (stream 0x101) in
  check_books "distinct entries" (books ~misfetches:3 ~mispredicts:1 ~cond:8 ~cond_taken:4 ~cond_correct:7 ()) apart;
  Alcotest.(check int) "no aliasing" 0 (apart_metric "predict.pht.alias");
  let aliased, aliased_metric = drive pht4096 (stream (0x100 + 4096)) in
  check_books "pc and pc+4096 alias" (books ~mispredicts:8 ~cond:8 ~cond_taken:4 ()) aliased;
  Alcotest.(check int) "alias transitions" 7 (aliased_metric "predict.pht.alias")

let test_conformance_gshare_collision () =
  (* One round: X (pc 32) taken, Y (pc 33) not taken, then eleven
     not-taken R (pc 0x400) that shift X's 1 back out of the 12-bit
     history.  gshare indexes (pc xor history) mod 4096: X reads entry
     32 xor 0 = 32 and leaves history 1, so Y reads 33 xor 1 = 32 too, the
     same counter.  Each round the counter goes 1 -> 2 (X mispredicted)
     -> 1 (Y mispredicted): 2 mispredicts a round.  R reads 0x400 xor h
     for h = 2, 4, ..., 2048, never entry 32, and predicts its fall-through
     correctly from the cold counter on.  Three rounds: 39 conditionals, 6
     mispredicts, 33 correct.  The direct-mapped table keeps X and Y
     apart: X mispredicts once then misfetches twice; Y and R are always
     right. *)
  let round =
    cond ~pc:32 ~taken:true :: cond ~pc:33 ~taken:false :: List.init 11 (fun _ -> cond ~pc:0x400 ~taken:false)
  in
  let stream = repeat 3 round in
  let gshare, _ = drive (Bep.Pht_gshare { entries = 4096; history_bits = 12 }) stream in
  check_books "gshare history collision" (books ~mispredicts:6 ~cond:39 ~cond_taken:3 ~cond_correct:33 ()) gshare;
  let direct, _ = drive pht4096 stream in
  check_books "direct-mapped keeps them apart"
    (books ~misfetches:2 ~mispredicts:1 ~cond:39 ~cond_taken:3 ~cond_correct:38 ()) direct

let test_conformance_btb_set_pressure () =
  (* BTB-64/2 has 32 sets; jumps at 0x40, 0x60 and 0x80 all map to set 0,
     three branches for two ways.  A hit is free; a miss misfetches and
     allocates, evicting the least recently used way.
       A miss (alloc)   B miss (alloc)   A hit
       C miss, evicts B (A was refreshed)   A hit
       B miss, evicts C   C miss, evicts A   A miss, evicts B
     8 jumps: 2 hits, 6 misfetches, 6 allocations, 4 evictions.  BTB-256/4
     has 64 sets, so 0x60 lands in set 32 and set 0 has four ways: only
     the three cold misses remain. *)
  let a = jump ~pc:0x40 and b = jump ~pc:0x60 and c = jump ~pc:0x80 in
  let stream = [ a; b; a; c; a; b; c; a ] in
  let small, metric = drive (Bep.Btb_arch { entries = 64; assoc = 2 }) stream in
  check_books "BTB-64/2 thrashes set 0" (books ~misfetches:6 ~uncond:8 ()) small;
  Alcotest.(check (list int)) "lookup/hit/alloc/evict" [ 8; 2; 6; 4 ]
    (List.map metric [ "predict.btb.lookup"; "predict.btb.hit"; "predict.btb.alloc"; "predict.btb.evict" ]);
  let large, _ = drive (Bep.Btb_arch { entries = 256; assoc = 4 }) stream in
  check_books "BTB-256/4 holds all three" (books ~misfetches:3 ~uncond:8 ()) large

let test_conformance_ras_overflow () =
  (* 33 nested calls, then 33 returns.  The 32-entry stack's 33rd push
     overwrites the oldest address (call 0's), so the first 32 pops are
     right and the last pop finds the stack empty: 1 mispredict.  Under
     FALLTHROUGH every direct call misfetches: 33. *)
  let call i = { Ev.pc = 1000 + (10 * i); target = 5000 + i; kind = Ev.Call } in
  let ret i = { Ev.pc = 9000 + i; target = 1000 + (10 * i) + 1; kind = Ev.Ret } in
  let stream = List.init 33 call @ List.init 33 (fun k -> ret (32 - k)) in
  let got, metric = drive Bep.Static_fallthrough stream in
  check_books "33 deep on a 32-entry stack"
    (books ~misfetches:33 ~mispredicts:1 ~calls:33 ~rets:33 ~rets_correct:32 ()) got;
  Alcotest.(check (list int)) "overflow/underflow" [ 1; 1 ]
    (List.map metric [ "predict.ras.overflow"; "predict.ras.underflow" ])

(* -- Edge cases pinned through Ba_obs counters ------------------------------
   These scenarios re-drive the structures' corner branches (saturation
   rails, circular-stack wraparound, set-conflict eviction, index aliasing)
   and assert the exact event counts the instrumentation records once the
   structure's books are flushed, so both the predictor semantics and the
   metric names/semantics are pinned. *)

let counted f =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r f;
  fun name -> Ba_obs.Registry.counter_value r name

let test_obs_counter2_saturation_rails () =
  let read =
    counted (fun () ->
        let pht = Pht.create_direct ~entries:16 in
        (* initial = 1: two updates climb to 3, the next 8 saturate high *)
        for _ = 1 to 10 do
          Pht.update pht ~pc:5 ~taken:true
        done;
        (* three updates descend to 0, the next 7 saturate low *)
        for _ = 1 to 10 do
          Pht.update pht ~pc:5 ~taken:false
        done;
        Pht.flush_obs pht)
  in
  Alcotest.(check int) "high rail" 8 (read "predict.counter2.sat_hi");
  Alcotest.(check int) "low rail" 7 (read "predict.counter2.sat_lo")

let test_obs_ras_overflow_underflow () =
  let popped = ref [] in
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      let s = Return_stack.create ~depth:2 in
      Return_stack.push s 10;
      Return_stack.push s 20;
      Return_stack.push s 30;
      (* overflow: wraps, overwriting 10 *)
      for _ = 1 to 3 do
        popped := Return_stack.pop s :: !popped
      done;
      Return_stack.flush_obs s);
  let read = Ba_obs.Registry.counter_value r in
  Alcotest.(check (list int))
    "wraparound pops newest two, then underflows" [ 30; 20; -1 ] (List.rev !popped);
  Alcotest.(check int) "pushes" 3 (read "predict.ras.push");
  Alcotest.(check int) "one overflow" 1 (read "predict.ras.overflow");
  Alcotest.(check int) "pops" 3 (read "predict.ras.pop");
  Alcotest.(check int) "one underflow" 1 (read "predict.ras.underflow");
  match Ba_obs.Registry.histogram_snapshot r "predict.ras.depth" with
  | Some h ->
    (* occupancies after each push: 1, 2, 2 *)
    Alcotest.(check int) "depth observations" 3 h.Ba_obs.Registry.total;
    Alcotest.(check int) "depth max is the stack depth" 2 h.Ba_obs.Registry.max_value
  | None -> Alcotest.fail "predict.ras.depth histogram missing"

let test_obs_btb_set_conflict_eviction () =
  let read =
    counted (fun () ->
        let btb = Btb.create ~entries:2 ~assoc:2 in
        (* one 2-way set: fill it, re-touch the first entry so the second
           becomes LRU, then allocate a third taken branch *)
        Btb.update btb ~pc:0x10 ~taken:true ~target:1;
        Btb.update btb ~pc:0x20 ~taken:true ~target:2;
        Btb.update btb ~pc:0x10 ~taken:true ~target:1;
        Btb.update btb ~pc:0x30 ~taken:true ~target:3;
        let expect pc hit =
          Alcotest.(check bool)
            (Printf.sprintf "pc %#x %s" pc (if hit then "survives" else "evicted"))
            hit
            (Btb.probe btb ~pc >= 0)
        in
        expect 0x10 true;
        expect 0x20 false;
        expect 0x30 true;
        Btb.flush_obs btb)
  in
  Alcotest.(check int) "allocations" 3 (read "predict.btb.alloc");
  Alcotest.(check int) "the LRU victim is evicted once" 1 (read "predict.btb.evict");
  Alcotest.(check int) "verification lookups" 3 (read "predict.btb.lookup");
  Alcotest.(check int) "hits" 2 (read "predict.btb.hit");
  Alcotest.(check int) "misses" 1 (read "predict.btb.miss")

let test_obs_pht_alias_counter () =
  let read =
    counted (fun () ->
        let pht = Pht.create_direct ~entries:16 in
        (* pc 5 trains the slot; pc 21 = 5 + 16 maps to the same index *)
        Pht.update pht ~pc:5 ~taken:true;
        Pht.update pht ~pc:5 ~taken:true;
        Pht.update pht ~pc:21 ~taken:false;
        Pht.update pht ~pc:5 ~taken:true;
        ignore (Pht.predict pht ~pc:5 : bool);
        Pht.flush_obs pht)
  in
  Alcotest.(check int) "one lookup" 1 (read "predict.pht.lookup");
  (* updates where the trained direction already agreed: the second and
     fourth (counter >= 2 predicts taken); the not-taken interloper and the
     cold first update disagree *)
  Alcotest.(check int) "agreeing updates" 2 (read "predict.pht.hit");
  (* a different pc touching an owned slot: 21 after 5, then 5 after 21 *)
  Alcotest.(check int) "alias transitions" 2 (read "predict.pht.alias")

let suites =
  [
    ( "predict.counter2",
      [
        Alcotest.test_case "saturation" `Quick test_counter_saturation;
        Alcotest.test_case "hysteresis" `Quick test_counter_hysteresis;
        Alcotest.test_case "initial" `Quick test_counter_initial_not_taken;
      ] );
    ("predict.static", [ Alcotest.test_case "rules" `Quick test_static_rules ]);
    ( "predict.pht",
      [
        Alcotest.test_case "learns bias" `Quick test_pht_learns_bias;
        Alcotest.test_case "aliasing" `Quick test_pht_aliasing;
        Alcotest.test_case "bad sizes" `Quick test_pht_rejects_bad_sizes;
        Alcotest.test_case "gshare alternation" `Quick test_gshare_learns_alternation;
        Alcotest.test_case "gshare masking" `Quick test_gshare_history_masking;
      ] );
    ( "predict.two_level",
      [
        Alcotest.test_case "local learns pattern" `Quick test_local_learns_loop_pattern;
        Alcotest.test_case "global learns pattern" `Quick test_global_learns_global_pattern;
        Alcotest.test_case "global ignores address" `Quick test_global_ignores_address;
        Alcotest.test_case "names" `Quick test_two_level_names;
        Alcotest.test_case "validation" `Quick test_two_level_validation;
      ] );
    ( "predict.btb",
      [
        Alcotest.test_case "miss then hit" `Quick test_btb_miss_then_hit;
        Alcotest.test_case "not-taken no alloc" `Quick test_btb_not_taken_never_allocates;
        Alcotest.test_case "counter training" `Quick test_btb_counter_training;
        Alcotest.test_case "LRU eviction" `Quick test_btb_lru_eviction;
        Alcotest.test_case "target update" `Quick test_btb_target_update;
        Alcotest.test_case "bad geometry" `Quick test_btb_bad_geometry;
      ] );
    ( "predict.return_stack",
      [
        Alcotest.test_case "LIFO" `Quick test_ras_lifo;
        Alcotest.test_case "overflow wraps" `Quick test_ras_overflow_wraps;
      ] );
    ( "predict.alpha_bits",
      [
        Alcotest.test_case "cold BT/FNT" `Quick test_alpha_bits_cold_btfnt;
        Alcotest.test_case "history bit" `Quick test_alpha_bits_history;
        Alcotest.test_case "eviction resets" `Quick test_alpha_bits_eviction_resets;
      ] );
    ( "predict.icache",
      [
        Alcotest.test_case "miss then hit" `Quick test_icache_miss_then_hit;
        Alcotest.test_case "range spans lines" `Quick test_icache_range_spans_lines;
        Alcotest.test_case "capacity eviction" `Quick test_icache_capacity_eviction;
        Alcotest.test_case "associativity" `Quick test_icache_associativity_helps;
        Alcotest.test_case "dense beats sparse" `Quick test_icache_dense_beats_sparse;
      ] );
    ( "predict.likely_bits",
      [
        Alcotest.test_case "hints" `Quick test_likely_bits;
        Alcotest.test_case "non-conditional pcs rejected" `Quick test_likely_bits_reject_other_pcs;
      ] );
    ("predict.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ( "predict.conformance",
      [
        Alcotest.test_case "direct PHT aliasing" `Quick test_conformance_pht_aliasing;
        Alcotest.test_case "gshare history collision" `Quick test_conformance_gshare_collision;
        Alcotest.test_case "BTB-64/2 set pressure" `Quick test_conformance_btb_set_pressure;
        Alcotest.test_case "32-deep return-stack overflow" `Quick test_conformance_ras_overflow;
      ] );
    ( "predict.obs",
      [
        Alcotest.test_case "counter2 saturation rails" `Quick test_obs_counter2_saturation_rails;
        Alcotest.test_case "RAS overflow and underflow" `Quick test_obs_ras_overflow_underflow;
        Alcotest.test_case "BTB set-conflict eviction" `Quick test_obs_btb_set_conflict_eviction;
        Alcotest.test_case "PHT alias counter" `Quick test_obs_pht_alias_counter;
      ] );
  ]
