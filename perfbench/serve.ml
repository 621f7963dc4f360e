(* A forked `branch_align serve` and a closed-loop client driving it.

   The client is one process holding [conns] connections, each with one
   request in flight: the next request on a connection is sent only when
   the previous response has arrived.  Every response is checked against
   the expected digest of its request's content; errors, [overloaded]
   refusals, mismatches and unanswered requests are counted as failures
   and never re-sent. *)

module P = Ba_serve.Protocol

let exe = "_build/default/bin/branch_align.exe"
let run_dir = ".perfbench"

type server = { pid : int; socket : string }

let instances = ref 0

let start ~jobs ~cache_mb =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  incr instances;
  (* Relative path: a Unix socket path is limited to 108 bytes, and the
     server runs in this process's working directory. *)
  let socket = Printf.sprintf "%s/s%d-%d.sock" run_dir (Unix.getpid ()) !instances in
  if Sys.file_exists socket then Sys.remove socket;
  let cache = match cache_mb with Some mb -> [ "--cache-mb"; string_of_int mb ] | None -> [] in
  let args = Array.of_list ([ exe; "serve"; "--socket"; socket; "-j"; string_of_int jobs ] @ cache) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process exe args devnull Unix.stderr Unix.stderr in
  Unix.close devnull;
  { pid; socket }

let alive s = match Unix.waitpid [ Unix.WNOHANG ] s.pid with 0, _ -> true | _ -> false

(* Connect as soon as the server listens, polling every 100 us so the
   measured start-up time (a few ms) is not quantised by the retry
   interval. *)
let connect s =
  let deadline = Int64.add (Util.now_ns ()) 30_000_000_000L in
  let rec loop () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if Util.now_ns () > deadline || not (alive s) then
        failwith "branch_align serve did not start listening";
      Unix.sleepf 0.0001;
      loop ()
  in
  loop ()

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Int64.add (Util.now_ns ()) 20_000_000_000L in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Util.now_ns () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  if Sys.file_exists s.socket then Sys.remove s.socket

(* One blocking request/response exchange (used for metrics). *)
let call fd req =
  P.write_request fd req;
  match P.read_frame fd with
  | None -> failwith "server closed the connection"
  | Some payload -> (
    match Result.bind (Ba_util.Json.parse payload) P.response_of_json with
    | Ok r -> r
    | Error e -> failwith e)

(* -- the closed loop ----------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  framer : P.Framer.t;
  mutable inflight : (int * string * int64) option;  (* id, content key, send time *)
  mutable dead : bool;
}

type client = {
  conns : conn array;
  next : unit -> Reqs.t;
  expected : (string, string) Hashtbl.t;
  mutable next_id : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* first few failure reasons *)
  mutable latencies_ms : float list;
  mutable digests : (int * string) list;  (* id, body digest, for the self-check *)
}

let client ~next ~expected fds =
  {
    conns = Array.map (fun fd -> { fd; framer = P.Framer.create (); inflight = None; dead = false }) fds;
    next;
    expected;
    next_id = 0;
    attempted = 0;
    failed = 0;
    errors = [];
    latencies_ms = [];
    digests = [];
  }

let fail c why =
  c.failed <- c.failed + 1;
  if List.length c.errors < 5 then c.errors <- why :: c.errors

let response_timeout_s = 60.0

(* Send [n] requests over the client's connections and wait for every
   response.  Returns the round's wall seconds. *)
let round c n =
  let remaining = ref n in
  let buf = Bytes.create 65536 in
  let dispatch conn =
    if !remaining > 0 && not conn.dead then begin
      decr remaining;
      let r = c.next () in
      let id = c.next_id in
      c.next_id <- id + 1;
      c.attempted <- c.attempted + 1;
      conn.inflight <- Some (id, Reqs.key r, Util.now_ns ());
      try P.write_request conn.fd (Reqs.to_request ~id r)
      with Unix.Unix_error _ ->
        conn.inflight <- None;
        conn.dead <- true;
        fail c "send failed"
    end
  in
  let settle conn payload =
    match conn.inflight with
    | None -> fail c "response with no request in flight"
    | Some (id, key, t0) -> (
      conn.inflight <- None;
      c.latencies_ms <- (Int64.to_float (Int64.sub (Util.now_ns ()) t0) /. 1e6) :: c.latencies_ms;
      match Result.bind (Ba_util.Json.parse payload) P.response_of_json with
      | Error e -> fail c ("unparseable response: " ^ e)
      | Ok r when r.P.rid <> id -> fail c (Printf.sprintf "response id %d for request %d" r.P.rid id)
      | Ok { P.status = P.Overloaded; _ } -> fail c ("overloaded: " ^ key)
      | Ok { P.status = P.Error_ msg; _ } -> fail c (Printf.sprintf "error on %s: %s" key msg)
      | Ok { P.status = P.Ok_; body; _ } ->
        let d = Reqs.body_digest body in
        c.digests <- (id, d) :: c.digests;
        if Hashtbl.find_opt c.expected key <> Some d then fail c ("digest mismatch: " ^ key))
  in
  let t0 = Util.now_ns () in
  Array.iter dispatch c.conns;
  let busy () = Array.to_list c.conns |> List.filter (fun k -> k.inflight <> None) in
  let kill conn =
    conn.dead <- true;
    if conn.inflight <> None then begin
      conn.inflight <- None;
      fail c "unanswered"
    end
  in
  let rec loop () =
    match busy () with
    | [] -> ()
    | open_ ->
      (match Unix.select (List.map (fun k -> k.fd) open_) [] [] response_timeout_s with
      | [], _, _ -> List.iter kill open_
      | ready, _, _ ->
        List.iter
          (fun conn ->
            if List.mem conn.fd ready then
              match Unix.read conn.fd buf 0 (Bytes.length buf) with
              | 0 -> kill conn
              | len -> (
                match P.Framer.feed conn.framer buf 0 len with
                | Error e ->
                  fail c e;
                  kill conn
                | Ok () ->
                  let rec drain () =
                    match P.Framer.next conn.framer with
                    | Some payload ->
                      settle conn payload;
                      dispatch conn;
                      drain ()
                    | None -> ()
                  in
                  drain ())
              | exception Unix.Unix_error _ -> kill conn)
          open_);
      loop ()
  in
  loop ();
  (* Requests that could not be sent because every connection died are
     unanswered too. *)
  if !remaining > 0 then begin
    c.attempted <- c.attempted + !remaining;
    for _ = 1 to !remaining do
      fail c "unanswered"
    done
  end;
  Util.seconds_since t0

let open_client s ~conns ~next ~expected =
  client ~next ~expected (Array.init conns (fun _ -> connect s))

let close_client c = Array.iter (fun k -> try Unix.close k.fd with Unix.Unix_error _ -> ()) c.conns

(* The server's own account: queue wait, service time, batches and
   refusals, plus its cache statistics. *)
let metrics c =
  let r = call c.conns.(0).fd (P.request ~id:(-1) P.Metrics) in
  Option.value ~default:Ba_util.Json.Null (Ba_util.Json.member "server" r.P.body)
