(** The flat replayer.

    Drives a recorded {!Trace.t} through a {!Flat.t}, producing exactly the
    event stream, block stream and {!Ba_exec.Engine.result} that
    {!Ba_exec.Engine.run} produces on the same image with the same budget —
    byte-identical, proven by the differential test wall — at a fraction of
    the cost: no hashtable lookups, no RNG draws, no weighted scans, and no
    per-event allocation.

    The events passed to [on_event] are {e one mutable scratch value}
    reused for the whole run (see {!Ba_exec.Event.t}); consumers must copy
    what they keep. *)

val run :
  ?on_event:(Ba_exec.Event.t -> unit) ->
  ?on_block:(addr:int -> size:int -> unit) ->
  Flat.t ->
  Trace.t ->
  Ba_exec.Engine.result
(** Raises [Failure] if the trace runs out of decisions for the image —
    the sign of a trace recorded for a different program or budget — and
    [Failure "Replay: choice out of range"] on a switch or vcall index at
    or past the site's [Flat.arity], so a corrupt choice can never take
    a neighbouring site's successor. *)
