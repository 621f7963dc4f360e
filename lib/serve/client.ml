(* Blocking client, used by the load generator, the CLI and the tests.
   Connections are plain blocking fds; pipelining is the caller's business
   (send several, then recv and correlate by id). *)

type t = { fd : Unix.file_descr }

let connect path =
  let rec attempt n =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd }
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* The server may still be binding; back off briefly and retry. *)
      ignore (Unix.select [] [] [] 0.05);
      attempt (n - 1)
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  attempt 40

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t req = Protocol.write_request t.fd req

let recv t =
  match Protocol.read_frame t.fd with
  | None -> None
  | Some payload -> (
    match Ba_util.Json.parse payload with
    | Error e -> failwith (Printf.sprintf "malformed response frame: %s" e)
    | Ok j -> (
      match Protocol.response_of_json j with
      | Error e -> failwith (Printf.sprintf "malformed response: %s" e)
      | Ok resp -> Some resp))

let call t req =
  send t req;
  match recv t with
  | Some resp -> resp
  | None -> failwith "server closed the connection mid-call"
