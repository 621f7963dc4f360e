(* Tests for the serving stack: the wire protocol (framing, JSON parsing,
   request/response round-trips), the sharded compute-once LRU behind
   Ba_workloads.Profiled, trace persistence under concurrent readers, and
   the server itself end to end — including the determinism-under-[-j]
   contract, the overload path, and graceful SIGTERM drain. *)

module P = Ba_serve.Protocol
module Lru = Ba_par.Lru
module J = Ba_util.Json

let wave5 () = Option.get (Ba_workloads.Spec.by_name "wave5")

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_request_round_trip () =
  let reqs =
    [
      P.request ~id:0 P.Ping;
      P.request ~workload:"wave5" ~algo:"try15" ~arch:"btfnt" ~max_steps:4000
        ~id:7 P.Align;
      P.request ~workload:"gcc" ~id:12345 P.Simulate;
      P.request ~workload:"alvinn" ~algo:"exttsp" ~id:2 P.Verify;
      P.request ~workload:"wave5" ~id:3 P.Analyze;
      P.request ~workload:"wave5" ~id:4 P.Tables;
      P.request ~id:5 P.Metrics;
    ]
  in
  List.iter
    (fun (r : P.request) ->
      let s = J.to_string (P.request_to_json r) in
      match J.parse s with
      | Error e -> Alcotest.fail ("reparse failed: " ^ e)
      | Ok j -> (
        match P.request_of_json j with
        | Error e -> Alcotest.fail ("decode failed: " ^ e)
        | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d round-trips" r.P.id)
            true (r = r')))
    reqs

let test_response_round_trip () =
  let resps =
    [
      { P.rid = 1; status = P.Ok_; body = J.Obj [ ("x", J.Int 3) ] };
      { P.rid = 2; status = P.Error_ "unknown workload \"zzz\""; body = J.Null };
      { P.rid = 3; status = P.Overloaded; body = J.Null };
    ]
  in
  List.iter
    (fun (r : P.response) ->
      let s = J.to_string (P.response_to_json r) in
      match J.parse s with
      | Error e -> Alcotest.fail ("reparse failed: " ^ e)
      | Ok j -> (
        match P.response_of_json j with
        | Error e -> Alcotest.fail ("decode failed: " ^ e)
        | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "response %d round-trips" r.P.rid)
            true (r = r')))
    resps

(* Feeding two frames one byte at a time must yield exactly the two
   payloads, in order — the server's IO loop sees arbitrary read
   boundaries. *)
let test_framer_chunked () =
  let payloads = [ "first payload"; {|{"id":9,"kind":"ping"}|} ] in
  let wire = String.concat "" (List.map P.frame payloads) in
  let f = P.Framer.create () in
  String.iter
    (fun c ->
      match P.Framer.feed f (Bytes.make 1 c) 0 1 with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("feed failed: " ^ e))
    wire;
  List.iter
    (fun expected ->
      match P.Framer.next f with
      | Some got -> Alcotest.(check string) "payload" expected got
      | None -> Alcotest.fail "frame missing")
    payloads;
  Alcotest.(check bool) "drained" true (P.Framer.next f = None)

let test_framer_oversize () =
  let f = P.Framer.create () in
  let header = Bytes.create 4 in
  (* A length just past the cap must poison the connection. *)
  Bytes.set_int32_be header 0 (Int32.of_int (P.max_frame_bytes + 1));
  match P.Framer.feed f header 0 4 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversized frame accepted"

let json_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return J.Null;
                 map (fun b -> J.Bool b) bool;
                 map (fun i -> J.Int i) int;
                 map (fun s -> J.String s) (string_size (int_bound 12));
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
                 map
                   (fun l -> J.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 6)) (self (n / 2))));
               ]))

(* Floats are deliberately absent from the generator: the printer's float
   formatting is not round-trip exact, and no protocol field needs it to
   be.  Everything else must survive print -> parse unchanged, including
   arbitrary bytes in strings (the escaper covers control characters and
   the parser decodes \u escapes). *)
let prop_json_round_trip =
  QCheck.Test.make ~count:200 ~name:"Json print/parse round-trip"
    (QCheck.make ~print:(fun j -> J.to_string j) json_gen)
    (fun j -> J.parse (J.to_string j) = Ok j)

(* ------------------------------------------------------------------ *)
(* The sharded LRU                                                     *)

let test_lru_concurrent_compute_once () =
  let calls = Atomic.make 0 in
  let cache = Lru.create ~shards:4 ~name:"t-conc" ~size_of:(fun _ -> 1) () in
  let started = Atomic.make 0 in
  let domains =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr started;
            while Atomic.get started < 8 do
              Domain.cpu_relax ()
            done;
            Lru.get cache ~key:"shared" (fun () ->
                Atomic.incr calls;
                ignore (Unix.select [] [] [] 0.01);
                42)))
  in
  List.iter
    (fun d -> Alcotest.(check int) "shared value" 42 (Domain.join d))
    domains;
  Alcotest.(check int) "exactly one compute" 1 (Atomic.get calls);
  let s = Lru.stats cache in
  Alcotest.(check int) "one miss" 1 s.Lru.misses;
  Alcotest.(check int) "seven hits" 7 s.Lru.hits

(* One shard makes recency fully deterministic: with a 10-byte budget and
   4-byte values, inserting a third value evicts the least recently
   touched — and a hit refreshes recency, so the re-read entry survives. *)
let test_lru_budget_eviction () =
  let cache =
    Lru.create ~shards:1 ~budget_bytes:10 ~name:"t-evict" ~size_of:String.length
      ()
  in
  let get k v = Lru.get cache ~key:k (fun () -> v) in
  Alcotest.(check string) "a" "aaaa" (get "a" "aaaa");
  Alcotest.(check string) "b" "bbbb" (get "b" "bbbb");
  Alcotest.(check string) "a again (hit refreshes)" "aaaa" (get "a" "XXXX");
  Alcotest.(check string) "c evicts the LRU" "cccc" (get "c" "cccc");
  Alcotest.(check bool) "a survives" true (Lru.mem cache "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem cache "b");
  Alcotest.(check bool) "c resident" true (Lru.mem cache "c");
  let s = Lru.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Lru.evictions;
  Alcotest.(check int) "bytes after eviction" 8 s.Lru.bytes;
  Alcotest.(check int) "entries" 2 s.Lru.entries;
  (* Shrinking the budget evicts immediately, oldest first. *)
  Lru.set_budget cache ~bytes:4;
  Alcotest.(check bool) "a evicted by resize" false (Lru.mem cache "a");
  Alcotest.(check bool) "c still resident" true (Lru.mem cache "c");
  Alcotest.(check int) "bytes fit budget" 4 (Lru.stats cache).Lru.bytes

let test_lru_clear () =
  let cache = Lru.create ~shards:2 ~name:"t-clear" ~size_of:(fun _ -> 3) () in
  ignore (Lru.get cache ~key:"k" (fun () -> 1) : int);
  ignore (Lru.get cache ~key:"k" (fun () -> 2) : int);
  Lru.clear cache;
  Alcotest.(check bool) "emptied" false (Lru.mem cache "k");
  let s = Lru.stats cache in
  Alcotest.(check int) "hits reset" 0 s.Lru.hits;
  Alcotest.(check int) "misses reset" 0 s.Lru.misses;
  Alcotest.(check int) "bytes reset" 0 s.Lru.bytes;
  Alcotest.(check int) "recomputes after clear" 9
    (Lru.get cache ~key:"k" (fun () -> 9));
  Alcotest.(check int) "fresh miss" 1 (Lru.stats cache).Lru.misses

let test_lru_failure_not_cached () =
  let cache = Lru.create ~shards:1 ~name:"t-fail" ~size_of:(fun _ -> 1) () in
  (match Lru.get cache ~key:"k" (fun () -> failwith "boom") with
  | (_ : int) -> Alcotest.fail "compute failure swallowed"
  | exception Failure msg -> Alcotest.(check string) "exn propagates" "boom" msg);
  Alcotest.(check bool) "failure not cached" false (Lru.mem cache "k");
  Alcotest.(check int) "next caller recomputes" 5
    (Lru.get cache ~key:"k" (fun () -> 5));
  let s = Lru.stats cache in
  Alcotest.(check int) "both lookups were misses" 2 s.Lru.misses;
  Alcotest.(check int) "no hits" 0 s.Lru.hits

(* Unbounded cache as a pure memo table: for any key sequence, the first
   value stored under a key is the one every later lookup returns,
   whatever shard the key lands on. *)
let prop_lru_round_trip =
  QCheck.Test.make ~count:100 ~name:"Lru round-trips values through shards"
    QCheck.(list (pair (string_of_size (Gen.int_bound 8)) small_int))
    (fun pairs ->
      let cache = Lru.create ~shards:4 ~name:"t-prop" ~size_of:(fun _ -> 8) () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, v) ->
          let expected =
            match Hashtbl.find_opt model k with
            | Some v0 -> v0
            | None ->
              Hashtbl.add model k v;
              v
          in
          Lru.get cache ~key:k (fun () -> v) = expected)
        pairs)

(* ------------------------------------------------------------------ *)
(* Trace persistence and the Profiled record-once contract             *)

let test_trace_concurrent_readers () =
  Ba_workloads.Profiled.clear ();
  let _, _, trace = Ba_workloads.Profiled.get_traced ~max_steps:4000 (wave5 ()) in
  let path = Filename.temp_file "ba-serve-trace" ".bast" in
  Ba_trace.Trace.save ~path ~seed:7 ~max_steps:4000 trace;
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Ba_trace.Trace.load ~path))
  in
  List.iter
    (fun d ->
      let f = Domain.join d in
      Alcotest.(check int) "seed" 7 f.Ba_trace.Trace.seed;
      Alcotest.(check int) "max_steps" 4000 f.Ba_trace.Trace.max_steps;
      Alcotest.(check bool) "trace round-trips" true
        (Ba_trace.Trace.equal trace f.Ba_trace.Trace.trace))
    domains;
  Sys.remove path

(* Equal inputs digest to equal cache keys, and equal keys share one trace
   record: two lookups are one interpreter run and one physical trace. *)
let test_equal_digest_shares_record () =
  Alcotest.(check string) "digest is a pure function of the inputs"
    (Ba_workloads.Profiled.key ~name:"wave5" ~max_steps:4000)
    (Ba_workloads.Profiled.key ~name:"wave5" ~max_steps:4000);
  Alcotest.(check bool) "distinct budgets digest apart" false
    (Ba_workloads.Profiled.key ~name:"wave5" ~max_steps:4000
    = Ba_workloads.Profiled.key ~name:"wave5" ~max_steps:4001);
  Ba_workloads.Profiled.clear ();
  let r = Ba_obs.Registry.create () in
  let t1, t2 =
    Ba_obs.Registry.with_registry r (fun () ->
        let _, _, t1 =
          Ba_workloads.Profiled.get_traced ~max_steps:4000 (wave5 ())
        in
        let _, _, t2 =
          Ba_workloads.Profiled.get_traced ~max_steps:4000 (wave5 ())
        in
        (t1, t2))
  in
  Alcotest.(check bool) "one shared trace record" true (t1 == t2);
  Alcotest.(check int) "one interpreter run" 1
    (Ba_obs.Registry.counter_value r "exec.engine.runs")

let test_histogram_quantile () =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      let h = Ba_obs.Histogram.make ~unit_:"us" "test.serve.quantile" in
      for v = 1 to 100 do
        Ba_obs.Histogram.observe h v
      done);
  (match Ba_obs.Registry.histogram_snapshot r "test.serve.quantile" with
  | None -> Alcotest.fail "histogram missing"
  | Some snap ->
    Alcotest.(check (option int)) "q=1.0 is the exact max" (Some 100)
      (Ba_obs.Histogram.quantile snap 1.0);
    (match Ba_obs.Histogram.quantile snap 0.5 with
    | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "p50 bucket bound %d covers the median" v)
        true
        (v >= 50 && v <= 100)
    | None -> Alcotest.fail "p50 missing"));
  let empty =
    {
      Ba_obs.Registry.bounds = [| 10; 100 |];
      counts = [| 0; 0; 0 |];
      total = 0;
      sum = 0;
      max_value = min_int;
    }
  in
  Alcotest.(check (option int)) "empty snapshot" None
    (Ba_obs.Histogram.quantile empty 0.5)

(* ------------------------------------------------------------------ *)
(* The server, end to end                                              *)

let socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "/tmp/ba-ts-%d-%d.sock" (Unix.getpid ()) !n

let start_server ?(jobs = 2) ?(queue_len = 256) ?(batch_max = 64) () =
  let sock = socket_path () in
  let cfg =
    {
      (Ba_serve.Server.default_config ~socket_path:sock) with
      jobs = Some jobs;
      queue_len;
      batch_max;
      install_signals = false;
    }
  in
  (sock, Ba_serve.Server.start cfg)

let test_server_ping_align_metrics () =
  let sock, h = start_server () in
  let cl = Ba_serve.Client.connect sock in
  let pong = Ba_serve.Client.call cl (P.request ~id:1 P.Ping) in
  Alcotest.(check bool) "ping ok" true (pong.P.status = P.Ok_);
  Alcotest.(check (option int)) "pong body" (Some 1)
    (Option.bind (J.member "pong" pong.P.body) (fun j ->
         match j with J.Bool true -> Some 1 | _ -> None));
  let al =
    Ba_serve.Client.call cl
      (P.request ~workload:"wave5" ~algo:"try15" ~arch:"btfnt" ~max_steps:4000
         ~id:2 P.Align)
  in
  Alcotest.(check bool) "align ok" true (al.P.status = P.Ok_);
  Alcotest.(check bool) "align body has total_cost" true
    (J.member "total_cost" al.P.body <> None);
  let m = Ba_serve.Client.call cl (P.request ~id:3 P.Metrics) in
  Alcotest.(check bool) "metrics ok" true (m.P.status = P.Ok_);
  (match J.member "server" m.P.body with
  | None -> Alcotest.fail "metrics body lacks server block"
  | Some server ->
    let int_field name =
      Option.bind (J.member name server) J.to_int_opt
    in
    Alcotest.(check bool) "served counted" true
      (match int_field "served" with Some n -> n >= 2 | None -> false);
    Alcotest.(check bool) "service latency summarised" true
      (match J.member "service" server with
      | Some (J.Obj _) -> true
      | _ -> false));
  let bad =
    Ba_serve.Client.call cl (P.request ~workload:"no-such" ~id:4 P.Align)
  in
  (match bad.P.status with
  | P.Error_ msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "error names the workload" true (contains msg "no-such")
  | _ -> Alcotest.fail "unknown workload must be an error");
  Ba_serve.Client.close cl;
  Ba_serve.Server.stop h

(* A repeated request is served warm: the second body is byte-identical
   to the first, and the trace cache counts a hit, not a miss.  The budget
   is one no other test uses, so only the first request records. *)
let test_server_warm_from_cache () =
  let sock, h = start_server () in
  let cl = Ba_serve.Client.connect sock in
  let align id =
    let r =
      Ba_serve.Client.call cl
        (P.request ~workload:"wave5" ~algo:"try15" ~arch:"btfnt"
           ~max_steps:4321 ~id P.Align)
    in
    Alcotest.(check bool) (Printf.sprintf "align %d ok" id) true
      (r.P.status = P.Ok_);
    J.to_string r.P.body
  in
  let cache_stats id =
    let m = Ba_serve.Client.call cl (P.request ~id P.Metrics) in
    let field name =
      match
        Option.bind
          (Option.bind (J.member "server" m.P.body) (J.member "cache"))
          (J.member name)
      with
      | Some v -> Option.get (J.to_int_opt v)
      | None -> Alcotest.failf "metrics body lacks server.cache.%s" name
    in
    (field "hits", field "misses")
  in
  let cold = align 1 in
  let hits_cold, misses_cold = cache_stats 2 in
  let warm = align 3 in
  let hits_warm, misses_warm = cache_stats 4 in
  Alcotest.(check string) "warm body byte-identical" cold warm;
  Alcotest.(check int) "no new cache miss" misses_cold misses_warm;
  Alcotest.(check bool) "cache hit counted" true (hits_warm > hits_cold);
  Ba_serve.Client.close cl;
  Ba_serve.Server.stop h

(* The determinism wall, through the socket: the same mixed batch served
   by a -j1 server and a -j4 server (both from a cold cache) must produce
   byte-identical response bodies. *)
let test_server_jobs_byte_identical () =
  let requests =
    List.concat_map
      (fun (i, w) ->
        [
          P.request ~workload:w ~algo:"try15" ~arch:"btfnt" ~max_steps:4000
            ~id:(3 * i) P.Align;
          P.request ~workload:w ~algo:"greedy" ~arch:"fallthrough"
            ~max_steps:4000
            ~id:((3 * i) + 1)
            P.Simulate;
          P.request ~workload:w ~algo:"cost" ~max_steps:4000
            ~id:((3 * i) + 2)
            P.Verify;
        ])
      [ (0, "wave5"); (1, "alvinn"); (2, "eqntott"); (3, "sc") ]
  in
  let serve jobs =
    Ba_workloads.Profiled.clear ();
    let sock, h = start_server ~jobs () in
    let cl = Ba_serve.Client.connect sock in
    List.iter (Ba_serve.Client.send cl) requests;
    let bodies = Hashtbl.create 16 in
    List.iter
      (fun (_ : P.request) ->
        match Ba_serve.Client.recv cl with
        | None -> Alcotest.fail "connection closed mid-batch"
        | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d ok" r.P.rid)
            true (r.P.status = P.Ok_);
          Hashtbl.replace bodies r.P.rid (J.to_string r.P.body))
      requests;
    Ba_serve.Client.close cl;
    Ba_serve.Server.stop h;
    bodies
  in
  let b1 = serve 1 in
  let b4 = serve 4 in
  List.iter
    (fun (r : P.request) ->
      Alcotest.(check string)
        (Printf.sprintf "request %d byte-identical" r.P.id)
        (Hashtbl.find b1 r.P.id) (Hashtbl.find b4 r.P.id))
    requests

(* A one-slot admission queue in front of a one-task dispatcher: flooding
   it with pipelined requests must answer every id exactly once, with at
   least one served and at least one rejected as overloaded. *)
let test_server_overload () =
  let n = 30 in
  let sock, h = start_server ~jobs:1 ~queue_len:1 ~batch_max:1 () in
  let cl = Ba_serve.Client.connect sock in
  for i = 0 to n - 1 do
    Ba_serve.Client.send cl
      (P.request ~workload:"wave5" ~algo:"try15" ~max_steps:4000 ~id:i P.Verify)
  done;
  let seen = Array.make n 0 in
  let ok = ref 0 and overloaded = ref 0 in
  for _ = 1 to n do
    match Ba_serve.Client.recv cl with
    | None -> Alcotest.fail "connection closed before all responses"
    | Some r -> (
      seen.(r.P.rid) <- seen.(r.P.rid) + 1;
      match r.P.status with
      | P.Ok_ -> incr ok
      | P.Overloaded -> incr overloaded
      | P.Error_ msg -> Alcotest.fail ("unexpected error: " ^ msg))
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "id %d answered once" i) 1 c)
    seen;
  Alcotest.(check bool) "some requests served" true (!ok >= 1);
  Alcotest.(check bool) "some requests shed" true (!overloaded >= 1);
  Ba_serve.Client.close cl;
  Ba_serve.Server.stop h

(* The SIGTERM case signals a server in a child process — this test binary
   re-executed with [serve_env] naming the socket — so the signal can never
   reach the test runner itself. *)
let serve_env = "BA_TEST_SERVE_SOCKET"

let serve_child_if_requested () =
  match Sys.getenv_opt serve_env with
  | None -> ()
  | Some socket_path ->
    Ba_serve.Server.run
      { (Ba_serve.Server.default_config ~socket_path) with jobs = Some 2 };
    exit 0

(* SIGTERM must drain: answered work stays answered, the connection sees a
   clean EOF (not a reset), the socket is unlinked, and the server exits
   0.  A failed assertion still kills and reaps the child. *)
let test_server_sigterm_drain () =
  let sock = socket_path () in
  let pid =
    Unix.create_process_env Sys.executable_name [| Sys.executable_name |]
      (Array.append [| serve_env ^ "=" ^ sock |] (Unix.environment ()))
      Unix.stdin Unix.stdout Unix.stderr
  in
  let status = ref None in
  let reap flags =
    match Unix.waitpid flags pid with
    | 0, _ -> ()
    | _, st -> status := Some st
  in
  Fun.protect
    ~finally:(fun () ->
      if !status = None then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap []
      end;
      if Sys.file_exists sock then Sys.remove sock)
  @@ fun () ->
  (* The child starts a whole test executable before it binds: wait for
     the socket file (up to 30 s) rather than for the client's retries. *)
  let rec await_socket tries =
    reap [ Unix.WNOHANG ];
    if !status <> None then Alcotest.fail "server exited before binding";
    if not (Sys.file_exists sock) then
      if tries = 0 then Alcotest.fail "server never bound its socket"
      else begin
        Unix.sleepf 0.02;
        await_socket (tries - 1)
      end
  in
  await_socket 1500;
  let cl = Ba_serve.Client.connect sock in
  let pong = Ba_serve.Client.call cl (P.request ~id:1 P.Ping) in
  Alcotest.(check bool) "ping before signal" true (pong.P.status = P.Ok_);
  let al =
    Ba_serve.Client.call cl
      (P.request ~workload:"wave5" ~max_steps:4000 ~id:2 P.Align)
  in
  Alcotest.(check bool) "align before signal" true (al.P.status = P.Ok_);
  Unix.kill pid Sys.sigterm;
  Alcotest.(check bool) "clean EOF after drain" true
    (Ba_serve.Client.recv cl = None);
  Ba_serve.Client.close cl;
  reap [];
  Alcotest.(check bool) "server exits 0" true (!status = Some (Unix.WEXITED 0));
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

let suites =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "request round-trip" `Quick test_request_round_trip;
        Alcotest.test_case "response round-trip" `Quick test_response_round_trip;
        Alcotest.test_case "framer reassembles chunked frames" `Quick
          test_framer_chunked;
        Alcotest.test_case "framer rejects oversized frames" `Quick
          test_framer_oversize;
        QCheck_alcotest.to_alcotest prop_json_round_trip;
      ] );
    ( "serve.lru",
      [
        Alcotest.test_case "concurrent gets share one compute" `Quick
          test_lru_concurrent_compute_once;
        Alcotest.test_case "byte budget evicts LRU-first" `Quick
          test_lru_budget_eviction;
        Alcotest.test_case "clear resets entries and tallies" `Quick
          test_lru_clear;
        Alcotest.test_case "failed computes are not cached" `Quick
          test_lru_failure_not_cached;
        QCheck_alcotest.to_alcotest prop_lru_round_trip;
      ] );
    ( "serve.trace",
      [
        Alcotest.test_case "save/load under concurrent readers" `Quick
          test_trace_concurrent_readers;
        Alcotest.test_case "equal digests share one trace record" `Quick
          test_equal_digest_shares_record;
        Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "ping, align, metrics, errors" `Slow
          test_server_ping_align_metrics;
        Alcotest.test_case "-j1 vs -j4 byte-identical" `Slow
          test_server_jobs_byte_identical;
        Alcotest.test_case "warm request served from the cache" `Slow
          test_server_warm_from_cache;
        Alcotest.test_case "overload sheds load" `Slow test_server_overload;
        Alcotest.test_case "SIGTERM drains gracefully" `Slow
          test_server_sigterm_drain;
      ] );
  ]
