(* The benchmark's check of itself (`--selfcheck`, exit 0 when it holds).

   - Two short runs reproduce the deterministic counts exactly: the
     server's cache misses and evictions at one client, every response
     digest, and the traced pass's sim.events and record.calls.
   - A deliberately wrong expected digest is counted as a failure.
   - Every response of the short runs matches expected.txt. *)

let requests = 120

(* One client, one pool domain: the cache sees the requests in a fixed
   order, so misses and evictions are deterministic. *)
let server_run ~warm ~expected =
  let s, c, _ = Workloads.serve_setup ~warm ~jobs:1 ~conns:1 ~expected in
  Fun.protect
    ~finally:(fun () ->
      Serve.close_client c;
      Serve.stop s)
    (fun () ->
      let c = { c with Serve.next = Workloads.serve_stream ~warm 1; digests = []; failed = 0; attempted = 0 } in
      ignore (Serve.round c requests);
      let m = Serve.metrics c in
      let cache k =
        Option.bind (Ba_util.Json.member "cache" m) (Ba_util.Json.member k)
        |> Fun.flip Option.bind Ba_util.Json.to_int_opt |> Option.value ~default:(-1)
      in
      (c.Serve.failed, List.rev c.Serve.digests, cache "misses", cache "evictions"))

(* The traced pass's deterministic counts over the same requests. *)
let traced_counts ~warm =
  Ba_workloads.Profiled.set_budget_mb (if warm then 512 else Workloads.churn_cache_mb);
  Ba_workloads.Profiled.clear ();
  let sp = Span.create () and k = Mirror.counts () in
  let next = Workloads.serve_stream ~warm 1 in
  let digests = List.init requests (fun id -> Mirror.handle (Some sp) k ~id (next ())) in
  let events = List.fold_left (fun a (s : Paper.sim_call) -> a + (s.Paper.events * List.length s.Paper.archs)) 0 k.Mirror.sims in
  (events, Span.calls sp "record", digests)

let run () =
  let expected = Reqs.load_expected () in
  let ok = ref true in
  let check name cond =
    Printf.printf "%-60s %s\n%!" name (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  List.iter
    (fun warm ->
      let name = if warm then "serve-warm" else "serve-churn" in
      let f1, d1, m1, e1 = server_run ~warm ~expected in
      let f2, d2, m2, e2 = server_run ~warm ~expected in
      check (name ^ ": every response matches expected.txt") (f1 = 0 && f2 = 0);
      check (name ^ ": response digests repeat by request id") (d1 = d2 && List.length d1 = requests);
      check (Printf.sprintf "%s: cache misses repeat (%d, %d)" name m1 m2) (m1 = m2 && m1 >= 0);
      check (Printf.sprintf "%s: cache evictions repeat (%d, %d)" name e1 e2) (e1 = e2 && e1 >= 0);
      let ev1, rc1, t1 = traced_counts ~warm in
      let ev2, rc2, t2 = traced_counts ~warm in
      check (Printf.sprintf "%s: traced sim.events repeats (%d)" name ev1) (ev1 = ev2);
      check (Printf.sprintf "%s: traced record.calls repeats (%d)" name rc1) (rc1 = rc2);
      check (name ^ ": traced digests equal the server's") (t1 = t2 && List.map snd d1 = t1))
    [ true; false ];
  let tables () =
    Paper.record_suite ~max_steps:20_000 ~jobs:(Util.nproc ()) ();
    Util.digest (Paper.pass ~max_steps:20_000 ~jobs:(Util.nproc ()) ()).Paper.output
  in
  check "tables: output digest repeats (reduced budget)" (tables () = tables ());
  (* A wrong expected digest must count as a failure. *)
  let first = Workloads.serve_stream ~warm:true 1 () in
  let tampered = Hashtbl.copy expected in
  Hashtbl.replace tampered (Reqs.key first) (String.make 32 '0');
  let f, _, _, _ = server_run ~warm:true ~expected:tampered in
  check (Printf.sprintf "a wrong expected digest is counted as failed (%d)" f) (f > 0);
  if !ok then 0 else 1
