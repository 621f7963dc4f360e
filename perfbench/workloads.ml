(* The untraced runs: every end-to-end metric of one workload.

   Set-up is repeated [setup_reps] times and reported as a median.  The
   timed phase repeats a fixed unit of work (a pass for [tables], a round
   of requests for [serve-*]) for the requested seconds; wall and CPU time
   are medians over the units, latencies come from every request of the
   units used (see [max_steal]). *)

let names = [ "tables"; "serve-warm"; "serve-churn" ]
let setup_reps = 9

(* serve-churn's cache budget: well below its working set of 768 traces
   (each priced at 64 KiB plus its packed size), so most requests miss. *)
let churn_cache_mb = 4

(* Requests per serve round: about a second of work on two cores, so the
   10 ms ticks of /proc CPU time cost about 1% per round, and a run has
   enough rounds to leave out the ones the host disturbed. *)
let round_requests ~warm = if warm then 240 else 300

(* One timed unit of work (a pass, or a round of requests): its wall and
   CPU seconds, the host's steal over it, its latency samples and how many
   of its requests completed correctly. *)
type timed = { wall : float; cpu : float; steal : float; latencies : float list; completed : int }

let timed f =
  let s0 = Util.host_steal_s () in
  let wall, cpu, latencies, completed = f () in
  { wall; cpu; steal = Util.host_steal_s () -. s0; latencies; completed }

(* A unit during which the hypervisor gave more than this share of the
   machine's CPU to other guests measured the host, not the program.  The
   timings come from the quiet units; when fewer than a third of the units
   are quiet, from the third the host disturbed least.  Failures are
   counted over every unit. *)
let max_steal = 0.02

let steal_share u = u.steal /. (float_of_int (Util.nproc ()) *. u.wall)

let least_disturbed units =
  let keep = (List.length units + 2) / 3 in
  let quiet = List.filter (fun u -> steal_share u <= max_steal) units in
  if List.length quiet >= keep then quiet
  else
    List.filteri (fun i _ -> i < keep)
      (List.stable_sort (fun a b -> compare (steal_share a) (steal_share b)) units)

let result ~failed ~attempted ~setups ~units ~rss =
  let used = least_disturbed units in
  let each f = List.map f used in
  let sum f = List.fold_left ( +. ) 0.0 (each f) in
  let latencies = List.concat (each (fun u -> u.latencies)) in
  let fmt p l = String.concat " " (List.map (Printf.sprintf p) l) in
  Out.say "failed_ratio: %g (%d of %d)" (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  Out.say "set-ups (s): %s" (fmt "%.3f" setups);
  Out.say "timed units, wall (s): %s" (fmt "%.3f" (List.map (fun u -> u.wall) units));
  Out.say "timed units, cpu (s): %s" (fmt "%.2f" (List.map (fun u -> u.cpu) units));
  Out.say "timed units, host steal (s): %s" (fmt "%.2f" (List.map (fun u -> u.steal) units));
  Out.say "timed units used: %d of %d; latency samples: %d" (List.length used) (List.length units)
    (List.length latencies);
  {
    Out.correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        ("setup_s", Util.median setups, "s");
        ("wall_s", Util.median (each (fun u -> u.wall)), "s");
        ("cpu_s", Util.median (each (fun u -> u.cpu)), "s");
        ("rps", sum (fun u -> float_of_int u.completed) /. sum (fun u -> u.wall), "req/s");
        ("latency_p50_ms", Util.percentile 0.50 latencies, "ms");
        ("latency_p99_ms", Util.percentile 0.99 latencies, "ms");
        ("peak_rss_mb", rss, "MiB");
      ];
  }

(* [tables]: a request is one pass, from its start to the rendered output.
   A run holds two or three, so its p99 is its slowest pass. *)
let run_tables ~seed ~seconds =
  let jobs = min (Util.nproc ()) (List.length Paper.suite) in
  Out.host ~workload:"tables" ~seed ~trace:false ~budgets:[ Paper.max_steps ] ~pool:jobs ~clients:0;
  let expected = Hashtbl.find (Reqs.load_expected ()) "tables" in
  let setups =
    List.init 5 (fun _ ->
        let t0 = Util.now_ns () in
        Paper.record_suite ~jobs ();
        Util.seconds_since t0)
  in
  let pass () =
    timed (fun () ->
        let p = Paper.pass ~jobs () in
        let ok = Util.digest p.Paper.output = expected in
        if not ok then Out.say "tables output digest differs from expected.txt";
        (p.Paper.wall_s, p.Paper.cpu_s, [ p.Paper.wall_s *. 1e3 ], if ok then 1 else 0))
  in
  let first = pass () in
  let n = max 1 (Float.to_int (Float.round (seconds /. first.wall))) in
  let units = first :: List.init (n - 1) (fun _ -> pass ()) in
  let failed = n - List.fold_left (fun a u -> a + u.completed) 0 units in
  result ~failed ~attempted:n ~setups ~units ~rss:(Util.peak_rss_mb 0)

(* Start the server (and, for serve-warm, fill its cache); the set-up
   time is until the server is ready for the timed phase. *)
let serve_setup ~warm ~jobs ~conns ~expected =
  let cache_mb = if warm then None else Some churn_cache_mb in
  let t0 = Util.now_ns () in
  let s = Serve.start ~jobs ~cache_mb in
  let fill = Reqs.warm_fill () in
  let c = Serve.open_client s ~conns ~next:(Reqs.of_list fill) ~expected in
  if warm then ignore (Serve.round c (List.length fill));
  (s, c, Util.seconds_since t0)

let serve_stream ~warm seed = if warm then Reqs.warm_stream seed else Reqs.churn_stream seed

let run_serve ~warm ~workload ~seed ~seconds =
  let jobs = Util.nproc () and conns = Util.nproc () in
  Out.host ~workload ~seed ~trace:false
    ~budgets:(if warm then [ Reqs.warm_steps ] else Array.to_list Reqs.churn_budgets)
    ~pool:jobs ~clients:conns;
  let expected = Reqs.load_expected () in
  (* Only the last instance serves the timed phase; the others time set-up
     and are stopped at once. *)
  let earlier =
    List.init (setup_reps - 1) (fun _ ->
        let s, c, t = serve_setup ~warm ~jobs ~conns ~expected in
        Serve.close_client c;
        Serve.stop s;
        (t, c))
  in
  let s, fill_client, t_last = serve_setup ~warm ~jobs ~conns ~expected in
  let setups = t_last :: List.map fst earlier in
  let fills = fill_client :: List.map snd earlier in
  let setup_attempted = List.fold_left (fun a c -> a + c.Serve.attempted) 0 fills in
  let setup_failed = List.fold_left (fun a c -> a + c.Serve.failed) 0 fills in
  Fun.protect
    ~finally:(fun () ->
      Serve.close_client fill_client;
      Serve.stop s)
    (fun () ->
      let c = { fill_client with Serve.next = serve_stream ~warm seed; attempted = 0; failed = 0; errors = []; latencies_ms = [] } in
      let n = round_requests ~warm in
      let t_end = Int64.add (Util.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
      let round () =
        timed (fun () ->
            let cpu0 = Util.proc_cpu_s s.Serve.pid and ok0 = c.Serve.attempted - c.Serve.failed in
            c.Serve.latencies_ms <- [];
            let wall = Serve.round c n in
            ( wall,
              Util.proc_cpu_s s.Serve.pid -. cpu0,
              c.Serve.latencies_ms,
              c.Serve.attempted - c.Serve.failed - ok0 ))
      in
      let rec rounds acc =
        let acc = round () :: acc in
        if Util.now_ns () < t_end && c.Serve.failed < c.Serve.attempted then rounds acc else acc
      in
      let units = rounds [] in
      List.iter (fun e -> Out.say "failure: %s" e) (List.rev c.Serve.errors);
      (match Ba_util.Json.member "cache" (Serve.metrics c) with
      | Some cache -> Out.say "server cache: %s" (Ba_util.Json.to_string cache)
      | None -> ());
      result ~failed:(c.Serve.failed + setup_failed) ~attempted:(c.Serve.attempted + setup_attempted) ~setups
        ~units ~rss:(Util.peak_rss_mb s.Serve.pid))

let run ~workload ~seed ~seconds =
  match workload with
  | "tables" -> run_tables ~seed ~seconds
  | "serve-warm" -> run_serve ~warm:true ~workload ~seed ~seconds
  | _ -> run_serve ~warm:false ~workload ~seed ~seconds
