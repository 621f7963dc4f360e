(** Branch execution penalty (BEP) simulation — the paper's §6 metric.

    A [t] consumes the branch-event stream of one execution and charges each
    event misfetch/mispredict cycles according to one branch architecture:

    - {b static / PHT architectures}: unconditional branches, correctly
      predicted taken conditional branches and direct calls cost a misfetch;
      mispredicted conditionals, mispredicted returns and all indirect jumps
      cost a mispredict (§6);
    - {b BTB architectures}: taken branches that hit in the BTB are free;
      unconditional/call BTB misses cost a misfetch; wrong directions or
      targets cost a mispredict.

    A misfetch costs {!misfetch_cycles} and a mispredict {!mispredict_cycles}
    (the paper's §6 numbers); every architecture shares one return stack of
    {!default_return_stack_depth} entries unless {!create} says otherwise. *)

type arch =
  | Static_fallthrough
  | Static_btfnt
  | Static_likely of Ba_predict.Likely_bits.t
  | Pht_direct of { entries : int }
  | Pht_gshare of { entries : int; history_bits : int }
  | Pht_global of { history_bits : int }
      (** Pan et al.'s degenerate two-level scheme: the global history
          register alone indexes the pattern table (§3) *)
  | Pht_local of { history_bits : int; branch_entries : int }
      (** Yeh & Patt's local-history two-level scheme (§3) *)
  | Btb_arch of { entries : int; assoc : int }

val arch_label : arch -> string

val misfetch_cycles : int
(** 1 — the paper's simulation cost of a misfetch (§6). *)

val mispredict_cycles : int
(** 4 — the paper's simulation cost of a mispredict (§6). *)

val default_return_stack_depth : int
(** 32 — the return-stack depth of every default simulation. *)

type counts = {
  mutable misfetches : int;
  mutable mispredicts : int;
  mutable cond : int;
  mutable cond_taken : int;
  mutable cond_correct : int;
  mutable uncond : int;
  mutable calls : int;
  mutable indirect : int;
  mutable rets : int;
  mutable rets_correct : int;
}

type t

val create : ?return_stack_depth:int -> arch -> t
val on_event : t -> Ba_exec.Event.t -> unit
val counts : t -> counts
(** The live books (mutated by {!on_event}); read them when the event
    stream is done. *)

val flush_obs : t -> unit
(** Add this simulator's contribution to the global [sim.bep.*] counters —
    the event loop itself never touches the metrics registry.  Call exactly
    once per simulation; {!Ba_sim.Runner.simulate} does. *)

val bep : t -> int
(** Total penalty cycles charged so far. *)

val cond_accuracy : t -> float
(** Fraction of executed conditional branches predicted correctly. *)

val relative_cpi : t -> insns:int -> orig_insns:int -> float
(** The paper's metric: [(insns + bep) / orig_insns] — cycles per original
    instruction, so that layouts that add or remove jumps stay comparable. *)
