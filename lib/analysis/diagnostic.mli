(** Structured lint diagnostics.

    Every checker in [Ba_analysis] reports through this type rather than a
    bare string, so callers (the [branch_align lint] subcommand, the test
    suite, future CI) can filter by severity, group by rule, and point at
    the exact pipeline location — procedure, semantic block, or layout
    position — the invariant was violated at.

    Rule ids are stable slugs of the form ["stage/rule-name"]
    (e.g. ["profile/flow-conservation"]); the catalogue lives in
    DESIGN.md's "Invariants & lint rules" section. *)

type severity = Error | Warning | Info

type location =
  | Program  (** a whole-program fact (e.g. call-graph shape) *)
  | Proc of { proc : Ba_ir.Term.proc_id; proc_name : string }
  | Block of {
      proc : Ba_ir.Term.proc_id;
      proc_name : string;
      block : Ba_ir.Term.block_id;
    }  (** a semantic basic block *)
  | Layout_pos of {
      proc : Ba_ir.Term.proc_id;
      proc_name : string;
      pos : int;
    }  (** a position in a lowered (linear) layout *)

type t = { severity : severity; rule : string; loc : location; message : string }

val make :
  severity -> rule:string -> loc:location -> ('a, unit, string, t) format4 -> 'a
(** [make Error ~rule ~loc fmt ...] builds a diagnostic with a formatted
    message. *)

val is_error : t -> bool

val count : t list -> int * int * int
(** [(errors, warnings, infos)]. *)

val sort : t list -> t list
(** Stable order: errors first, then warnings, then infos; within a
    severity, by location (program, then procedure id, then block/position),
    then rule id. *)

val pp : Format.formatter -> t -> unit

val to_row : t -> string list
(** [[severity; rule; location; message]] — one table row for
    {!Ba_util.Ascii_table.render}. *)

val to_json : t -> Ba_util.Json.t
(** Machine-readable form, shared by [lint --format=json] and
    [verify --format=json]. *)
