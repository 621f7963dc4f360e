(** Packed semantic traces.

    A trace is the {e layout-independent} decision stream of one program
    execution: every conditional's semantic outcome as one bit, every
    switch/vcall's selected index as one varint, plus the step count and
    whether the run halted.  It deliberately contains {e no} addresses,
    positions or events — those are layout artifacts that {!Replay}
    re-derives from whichever image it is driving.

    Layout-independence holds by construction: {!Ba_exec.Engine.site_seed}
    derives every site's RNG from the program seed and the site's semantic
    (procedure, block) identity only, the global 16-bit history register is
    formed from semantic outcomes in semantic order, and
    {!Ba_layout.Lower.lower} preserves the source order of switch targets
    and vcall callees — so index [i] recorded on one layout selects the
    same semantic successor on every layout of the same program.

    Consumption is also layout-invariant: a block's terminator {e kind}
    does not depend on the layout (a conditional consumes exactly one bit
    whether or not it needed an inserted jump; a switch/vcall consumes
    exactly one varint; jumps, calls, returns and halts consume nothing),
    so one interleaved pair of streams replays correctly everywhere.

    Typical cost: 1 bit per conditional, 1-2 bytes per switch/vcall —
    roughly 400 KB for a 3M-step workload. *)

type t = {
  steps : int;  (** semantic block visits of the recorded run *)
  completed : bool;  (** the recorded run halted before its budget *)
  n_conds : int;  (** conditional outcomes recorded *)
  conds : bytes;  (** outcome bits, LSB-first within each byte *)
  n_choices : int;  (** switch/vcall indices recorded *)
  choices : bytes;  (** the indices, concatenated unsigned LEB128 varints *)
}
(** The record is transparent so {!Replay}'s inner loop reads the streams
    without call overhead; treat values as immutable. *)

val byte_size : t -> int
(** Payload bytes (both streams), the number reported by [bench]. *)

val equal : t -> t -> bool
(** Structural equality of the full decision stream (used by the save/load
    and cache round-trip tests). *)

val cond : t -> int -> bool
(** [cond t i] is the [i]th conditional outcome.  Bounds-checked. *)

(** {1 Building} *)

module Builder : sig
  type trace := t
  type t

  val create : unit -> t
  val add_outcome : t -> bool -> unit
  val add_choice : t -> int -> unit

  val finish : t -> steps:int -> completed:bool -> trace
  (** The builder must not be reused after [finish]. *)
end

(** {1 Disk format}

    Magic ["BAST1\n"], then the program seed (zigzag varint), the recording
    [max_steps], and the six trace fields — all unsigned LEB128 varints,
    streams as raw bytes.  [branch_align trace replay] refuses a trace
    whose seed differs from the workload's (it was recorded from a
    different program) and re-profiles at the recorded budget when the
    layout it replays through needs a profile. *)

type file = { seed : int; max_steps : int; trace : t }

val save : path:string -> seed:int -> max_steps:int -> t -> unit
val load : path:string -> file
(** Raises [Failure "Trace.load: ..."] on a corrupt file: bad magic, a
    truncated file, a varint longer than 9 bytes, a stream length beyond
    the end of the file, a cond count that does not fill its stream
    ([ceil (n_conds / 8)] bytes), more choices than choice bytes, or
    trailing bytes.  Streams grow as their bytes are read, so a corrupt
    length costs no more memory than the file holds; [path] may be a
    pipe.  A trace that loads can still fail in {!Replay} (a [steps]
    count past its decisions, an out-of-range choice). *)
