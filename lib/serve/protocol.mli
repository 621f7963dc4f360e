(** The serve wire protocol.

    Frames are a 4-byte big-endian payload length followed by that many
    bytes of compact JSON — one request or response per frame, no padding.
    Requests carry a client-chosen [id]; the server echoes it in the
    response, so clients may pipeline and correlate by id.  Responses to
    compute requests preserve per-connection request order; [overloaded]
    rejections are written immediately and may overtake queued work.

    A request:  [{"id":7,"kind":"align","workload":"tower","algo":"try15",
    "arch":"btfnt","max_steps":20000}] — [workload]/[algo]/[arch]/[max_steps]
    are optional where the kind ignores them, and [algo]/[arch] accept
    exactly the command-line spellings.

    A response: [{"id":7,"status":"ok","body":{...}}], with [status] one of
    ["ok"], ["error"] (plus an ["error"] message field) or ["overloaded"]. *)

val max_frame_bytes : int
(** Frames larger than this (16 MiB) are a protocol error. *)

type kind = Ping | Align | Simulate | Verify | Analyze | Tables | Metrics

val kind_name : kind -> string

type request = {
  id : int;
  kind : kind;
  workload : string;  (** ["" ] when absent *)
  algo : string;  (** command-line spelling; [""] = server default (try15) *)
  arch : string;  (** command-line spelling; [""] = server default (btfnt) *)
  max_steps : int option;
}

type status = Ok_ | Error_ of string | Overloaded

type response = { rid : int; status : status; body : Ba_util.Json.t }

val request :
  ?workload:string ->
  ?algo:string ->
  ?arch:string ->
  ?max_steps:int ->
  id:int ->
  kind ->
  request

val request_to_json : request -> Ba_util.Json.t
val request_of_json : Ba_util.Json.t -> (request, string) result
val response_to_json : response -> Ba_util.Json.t
val response_of_json : Ba_util.Json.t -> (response, string) result

val frame : string -> string
(** Prefix a payload with its length header. *)

(** Incremental frame decoder for non-blocking reads. *)
module Framer : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> int -> (unit, string) result
  (** [feed t buf off len] consumes freshly-read bytes.  [Error] (an
      oversized frame) poisons the connection — close it. *)

  val next : t -> string option
  (** Pop the next complete payload, in arrival order. *)
end

(** {1 Blocking IO} — used by the client and the tests; the server's IO
    loop uses {!Framer} over non-blocking reads instead. *)

val read_frame : Unix.file_descr -> string option
(** [None] on a clean EOF at a frame boundary; raises [End_of_file] on a
    truncated frame and [Failure] on an oversized one. *)

val write_request : Unix.file_descr -> request -> unit
