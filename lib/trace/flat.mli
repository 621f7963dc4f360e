(** Flattened code images.

    [of_image] specializes an {!Ba_layout.Image.t} into position-indexed
    parallel arrays over {e global positions} (procedure layouts
    concatenated in program order), so {!Replay}'s dispatch loop is array
    reads only — no hashtables, no option chasing, no per-visit float
    scans. *)

type t = {
  image : Ba_layout.Image.t;  (** the image this was flattened from *)
  entry : int;  (** global position of main's entry block *)
  pbase : int array;  (** first global position of each procedure *)
  addr : int array;  (** block address, by global position *)
  insns : int array;  (** straight-line instruction count *)
  opcode : int array;  (** terminator opcode, one of the [o*] codes below *)
  a : int array;  (** primary operand, see the opcode table *)
  b : int array;  (** secondary operand *)
  c : int array;  (** tertiary operand *)
  succ : int array;  (** shared successor pool for switch/vcall targets *)
  arity : int array;
      (** successor count of a switch or vcall, [0] for every other block:
          a recorded choice must lie below it *)
}

(** Opcodes and operand meaning ([g] is the block's global position):

    - [onone]: fall through to [g+1]; no operands.
    - [ojump]: [a] = target global position.
    - [ocond]: [a] = taken global position, [b] = 1 iff taken on [true],
      [c] = inserted-jump global position or [-1] for fall-through.
    - [oswitch]: [a] = offset into [succ]; [arity] targets.
    - [ocall]: [a] = callee entry global position, [b] = return-jump pc or
      [-1] when the continuation falls through, [c] = resume global
      position.
    - [ovcall]: [a] = offset into [succ] (callee entry global positions),
      [b]/[c] as [ocall]; [arity] callees.
    - [oret], [ohalt]: no operands. *)

val onone : int
val ojump : int
val ocond : int
val oswitch : int
val ocall : int
val ovcall : int
val oret : int
val ohalt : int

val of_image : Ba_layout.Image.t -> t
