(** Blocking protocol client.

    One connection per value; {!send}/{!recv} allow pipelining (responses
    to compute requests preserve per-connection request order, and every
    response echoes the request id), {!call} is the simple one-at-a-time
    path. *)

type t

val connect : string -> t
(** Connect to a server socket, retrying up to 40 times (50 ms apart)
    while the path does not accept yet — covers the window
    between {!Server.start} and a forked CLI server actually listening. *)

val close : t -> unit
val send : t -> Protocol.request -> unit

val recv : t -> Protocol.response option
(** [None] on a clean EOF (server drained and closed). *)

val call : t -> Protocol.request -> Protocol.response
(** {!send} then {!recv}; raises on EOF. *)
