(** Return-address stack (Kaeli & Emma style; paper §6 simulates a 32-entry
    stack in every architecture).

    A fixed-depth circular stack: pushing beyond the depth silently
    overwrites the oldest entry; popping an empty stack predicts nothing
    (a guaranteed misprediction).  Pushed addresses must be non-negative. *)

type t

val create : depth:int -> t
val push : t -> int -> unit
val pop : t -> int
(** The predicted return address, or -1 when the stack is empty. *)

val depth : t -> int
val occupancy : t -> int

val flush_obs : t -> unit
(** Flush the books accumulated since the last flush to the
    [predict.ras.*] counters and depth histogram. *)
