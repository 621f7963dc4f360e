(* The traced run: per-layer metrics of one workload.

   The run makes the workload's work twice on the calling domain alone,
   so that GC counters belong to the layer being called: once untraced,
   through the public entry points (Harness/Interproc for [tables],
   Ba_serve.Handler.handle for [serve-*]), and once through a mirror of
   those entry points that opens a span around every call into a layer.
   The ratio of the two walls is the tracing overhead.  Unit costs come
   from Probe on the workload's own programs; the server's own account
   comes from a short closed loop against a real server. *)

let predicted = [ ("tables", "Ba_sim+Ba_predict"); ("serve-warm", "Ba_sim+Ba_predict"); ("serve-churn", "record") ]

(* Self seconds per layer.  A simulation's time is split between trace
   replay and the predictors by the probe's per-event costs. *)
let layers sp (probe : Probe.sim) (sims : Paper.sim_call list) =
  let self = Span.self_s sp in
  let marginal k = Float.max 0.0 (Option.value ~default:0.0 (List.assoc_opt k probe.Probe.arch_ns)) in
  let replay_share archs =
    probe.Probe.base_ns /. (probe.Probe.base_ns +. List.fold_left (fun a k -> a +. marginal k) 0.0 archs)
  in
  let replay, sim =
    List.fold_left
      (fun (r, s) (c : Paper.sim_call) ->
        let d = Int64.to_float c.Paper.dur_ns /. 1e9 in
        let f = replay_share c.Paper.archs in
        (r +. (d *. f), s +. (d *. (1.0 -. f))))
      (0.0, 0.0) sims
  in
  let alpha = self "sim.alpha" and af = replay_share [ "alpha" ] in
  [
    ("Ba_trace.Replay", replay +. (alpha *. af));
    ("Ba_sim+Ba_predict", sim +. (alpha *. (1.0 -. af)) +. self "predict");
    ("Ba_core.Align", self "align");
    ("Ba_delta", self "anneal" +. self "delta.model" +. self "delta.eval_create" +. self "delta.cost");
    ("Ba_layout", self "lower");
    ("Ba_verify", self "verify");
    ("Ba_conflict", self "analyze");
    ("record", self "record");
    ("Ba_par.Lru", self "lru");
    ("Ba_util.Json+Protocol", self "json.encode" +. self "json.decode");
    ("Ba_serve.Handler", self "handler");
    ("Ba_report", self "interproc" +. self "report");
    ("Ba_exec.Trace_stats", self "stats");
  ]

let write_spans ~workload ~seed sp =
  if not (Sys.file_exists Serve.run_dir) then Unix.mkdir Serve.run_dir 0o755;
  let path = Printf.sprintf "%s/trace-%s-%d.json" Serve.run_dir workload seed in
  let oc = open_out_bin path in
  output_string oc (Ba_util.Json.to_string (Span.to_json sp));
  close_out oc;
  path

type common = {
  workload : string;
  seed : int;
  setup : Span.t;  (* spans of set-up: trace recording *)
  sp : Span.t;  (* spans of the traced pass *)
  k_setup : Mirror.counts;
  k : Mirror.counts;
  untraced_s : float;
  traced_s : float;
  gc_minor : float;
  gc_major : int;
  lru : Ba_par.Lru.stats * Ba_par.Lru.stats;  (* around the traced pass *)
  probe_steps : int;
  json : float * float;  (* encode, decode ns/byte *)
}

(* The metrics every workload reports; [extra] holds the ones only some
   workloads measure (0 where the layer is not on the path). *)
let metrics c ~extra =
  let probe = Probe.sim ~max_steps:c.probe_steps ~rounds:5 in
  let align = Probe.align ~max_steps:c.probe_steps ~rounds:3 in
  let delta = Probe.delta ~max_steps:c.probe_steps ~rounds:5 in
  let sp = c.sp in
  let both f = f c.setup +. f sp in
  let record_busy = both (fun t -> Span.busy_s t "record") in
  let record_steps = c.k_setup.Mirror.record_steps + c.k.Mirror.record_steps in
  let l0, l1 = c.lru in
  let hits = l1.Ba_par.Lru.hits - l0.Ba_par.Lru.hits and misses = l1.Ba_par.Lru.misses - l0.Ba_par.Lru.misses in
  let sims = c.k.Mirror.sims in
  let layer_s = layers sp probe sims in
  let covered = List.fold_left (fun a (_, s) -> a +. s) 0.0 layer_s in
  let largest, largest_s = List.fold_left (fun (n, s) (m, t) -> if t > s then (m, t) else (n, s)) ("none", 0.0) layer_s in
  Out.say "layer self times over a %.3f s traced pass (untraced %.3f s):" c.traced_s c.untraced_s;
  List.iter (fun (n, s) -> Out.say "  %-24s %8.3f s  %5.1f%%" n s (100.0 *. s /. c.traced_s)) layer_s;
  let expect = List.assoc c.workload predicted in
  Out.say "largest layer: %s (%.1f%%); predicted %s: %s" largest (100.0 *. largest_s /. c.traced_s) expect
    (if largest = expect then "matches" else "DOES NOT MATCH");
  Out.say "spans: %s" (write_spans ~workload:c.workload ~seed:c.seed sp);
  let ns k = Option.value ~default:0.0 (List.assoc_opt k probe.Probe.arch_ns) in
  let words k = Option.value ~default:0.0 (List.assoc_opt k probe.Probe.arch_words) in
  let enc, dec = c.json in
  [
    ("replay.ns_per_event", probe.Probe.base_ns, "ns");
    ("replay.words_per_event", probe.Probe.base_words, "words");
  ]
  @ List.map (fun n -> (Printf.sprintf "sim.%s.ns_per_event" n, ns n, "ns")) Probe.sim_names
  @ List.map (fun n -> (Printf.sprintf "sim.%s.words_per_event" n, words n, "words")) [ "pht"; "gshare"; "btb64"; "btb256" ]
  @ [
      ( "sim.events",
        float_of_int (List.fold_left (fun a (s : Paper.sim_call) -> a + (s.Paper.events * List.length s.Paper.archs)) 0 sims),
        "count" );
    ]
  @ List.map (fun (n, us) -> (Printf.sprintf "align.%s.us_per_proc" n, us, "us")) align
  @ [
      ("align.busy_s", Span.busy_s sp "align", "s");
      ("anneal.busy_s", Span.busy_s sp "anneal", "s");
      ("delta.eval_create.busy_s", Span.busy_s sp "delta.eval_create", "s");
      ("delta.ns_per_candidate", delta, "ns");
      ("lower.busy_s", Span.busy_s sp "lower", "s");
      ("lower.calls", float_of_int (Span.calls sp "lower"), "count");
      ("verify.busy_s", Span.busy_s sp "verify", "s");
      ("verify.calls", float_of_int (Span.calls sp "verify"), "count");
      ("analyze.busy_s", Span.busy_s sp "analyze", "s");
      ("record.calls", float_of_int (Span.calls c.setup "record" + Span.calls sp "record"), "count");
      ("record.busy_s", record_busy, "s");
      ("record.ns_per_step", (if record_steps = 0 then 0.0 else record_busy *. 1e9 /. float_of_int record_steps), "ns");
      ("record.trace_bytes", float_of_int (c.k_setup.Mirror.record_bytes + c.k.Mirror.record_bytes), "bytes");
      ("lru.hits", float_of_int hits, "count");
      ("lru.misses", float_of_int misses, "count");
      ("lru.evictions", float_of_int (l1.Ba_par.Lru.evictions - l0.Ba_par.Lru.evictions), "count");
      ("lru.hit_ratio", (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)), "ratio");
      ("lru.bytes", float_of_int l1.Ba_par.Lru.bytes, "bytes");
      ("json.encode_ns_per_byte", enc, "ns");
      ("json.decode_ns_per_byte", dec, "ns");
      ("protocol.response_bytes", float_of_int c.k.Mirror.response_bytes, "bytes");
      ("report.render_s", Span.busy_s sp "report", "s");
      ("interproc.busy_s", Span.busy_s sp "interproc", "s");
      ("gc.minor_words", c.gc_minor, "words");
      ("gc.major_collections", float_of_int c.gc_major, "count");
      ("trace.overhead_ratio", c.traced_s /. c.untraced_s, "ratio");
      ("trace.coverage", covered /. c.traced_s, "ratio");
    ]
  @ extra

(* Run [f] as the traced pass: wall, GC and cache counters around it. *)
let around f =
  let g0 = Gc.quick_stat () and l0 = Ba_workloads.Profiled.lru_stats () in
  let t0 = Util.now_ns () in
  let r = f () in
  let wall = Util.seconds_since t0 in
  let g1 = Gc.quick_stat () and l1 = Ba_workloads.Profiled.lru_stats () in
  (r, wall, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections, (l0, l1))

(* The server's own account of a workload's requests, under the
   benchmark's load: [setup] starts (and fills) the server, [requests] are
   sent in one closed-loop round.  Returns the client's failures and
   attempts, the server's CPU over the round's wall, and its metrics. *)
let server_account ~setup ~requests =
  let s, c = setup () in
  Fun.protect
    ~finally:(fun () ->
      Serve.close_client c;
      Serve.stop s)
    (fun () ->
      let a0 = c.Serve.attempted and f0 = c.Serve.failed in
      let c = { c with Serve.next = Reqs.of_list requests } in
      let cpu0 = Util.proc_cpu_s s.Serve.pid in
      let wall = Serve.round c (List.length requests) in
      let cpu = Util.proc_cpu_s s.Serve.pid -. cpu0 in
      let m = Serve.metrics c in
      let get path =
        List.fold_left (fun j k -> Option.bind j (Ba_util.Json.member k)) (Some m) path
        |> Fun.flip Option.bind Ba_util.Json.to_int_opt |> Option.value ~default:0 |> float_of_int
      in
      ( c.Serve.failed - f0,
        c.Serve.attempted - a0,
        cpu /. wall,
        [
          ("server.queue_wait_p50_us", get [ "queue_wait"; "p50_us" ], "us");
          ("server.queue_wait_p99_us", get [ "queue_wait"; "p99_us" ], "us");
          ("server.service_p50_us", get [ "service"; "p50_us" ], "us");
          ("server.service_p99_us", get [ "service"; "p99_us" ], "us");
          ("server.batches", get [ "batches" ], "count");
          ("server.overloaded", get [ "overloaded" ], "count");
        ] ))

let handler_kinds = [ Ba_serve.Protocol.Align; Simulate; Verify; Analyze ]

(* handler.<kind>.ms: the mean Ba_serve.Handler.handle time of the kind's
   requests in the untraced pass.  A kind the workload does not send is
   timed on the probe programs at the workload's budget instead. *)
let handler_ms ~steps per_kind =
  List.map
    (fun kind ->
      let name = Ba_serve.Protocol.kind_name kind in
      let samples =
        match Hashtbl.find_opt per_kind name with
        | Some l -> l
        | None ->
          List.concat_map
            (fun workload ->
              let r = { Reqs.kind; workload; algo = "try15"; arch = "btfnt"; steps } in
              List.init 3 (fun id ->
                  let t = Util.now_ns () in
                  ignore (Ba_serve.Handler.handle (Reqs.to_request ~id r));
                  Int64.to_float (Int64.sub (Util.now_ns ()) t) /. 1e6))
            Probe.programs
      in
      (Printf.sprintf "handler.%s.ms" name, List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples), "ms"))
    handler_kinds

(* -- tables -------------------------------------------------------------- *)

let tables ~seed =
  let max_steps = Paper.max_steps in
  let nproc = min (Util.nproc ()) (List.length Paper.suite) in
  Out.host ~workload:"tables" ~seed ~trace:true ~budgets:[ max_steps ] ~pool:nproc ~clients:nproc;
  let all_expected = Reqs.load_expected () in
  let expected = Hashtbl.find all_expected "tables" in
  let server_failed, server_attempted, _, server_extra =
    server_account
      ~setup:(fun () ->
        let s = Serve.start ~jobs:nproc ~cache_mb:None in
        (s, Serve.open_client s ~conns:nproc ~next:(Reqs.of_list []) ~expected:all_expected))
      ~requests:(Reqs.tables_requests ())
  in
  let setup = Span.create () and sp = Span.create () in
  let k_setup = Mirror.counts () and k = Mirror.counts () in
  Ba_workloads.Profiled.clear ();
  List.iter (fun w -> ignore (Mirror.profiled (Some setup) k_setup ~max_steps w)) Paper.suite;
  (* Parallel efficiency of the pool, from CPU and wall time. *)
  let par = Paper.pass ~jobs:nproc () in
  (* Untraced passes before and after the traced one, so neither side
     alone pays for a cold heap. *)
  let before = Paper.pass ~jobs:1 () in
  let sims = ref [] in
  let (output, rows, _), traced_s, gc_minor, gc_major, lru = around (fun () -> Paper.traced_pass sp sims) in
  let after = Paper.pass ~jobs:1 () in
  k.Mirror.sims <- !sims;
  let outputs = [ par.Paper.output; before.Paper.output; output; after.Paper.output ] in
  let failed = server_failed + List.length (List.filter (fun o -> Util.digest o <> expected) outputs) in
  let c =
    {
      workload = "tables";
      seed;
      setup;
      sp;
      k_setup;
      k;
      untraced_s = (before.Paper.wall_s +. after.Paper.wall_s) /. 2.0;
      traced_s;
      gc_minor;
      gc_major;
      lru;
      probe_steps = max_steps;
      json = Probe.json (Ba_report.Interproc.to_json rows);
    }
  in
  let extra =
    (("pool.cpu_over_wall", par.Paper.cpu_s /. par.Paper.wall_s, "ratio") :: server_extra)
    @ handler_ms ~steps:max_steps (Hashtbl.create 0)
  in
  let attempted = server_attempted + List.length outputs in
  { Out.correct = failed = 0; attempted; failed; metrics = metrics c ~extra }

(* -- serve-* ------------------------------------------------------------- *)

let traced_requests = 400

let serve ~warm ~workload ~seed =
  let nproc = Util.nproc () in
  Out.host ~workload ~seed ~trace:true
    ~budgets:(if warm then [ Reqs.warm_steps ] else Array.to_list Reqs.churn_budgets)
    ~pool:nproc ~clients:nproc;
  let expected = Reqs.load_expected () in
  let stream () = Workloads.serve_stream ~warm seed in
  let requests = let next = stream () in List.init traced_requests (fun _ -> next ()) in
  let server_failed, server_attempted, cpu_over_wall, server_extra =
    server_account
      ~setup:(fun () ->
        let s, c, _setup_s = Workloads.serve_setup ~warm ~jobs:nproc ~conns:nproc ~expected in
        (s, c))
      ~requests
  in
  (* In process, on this domain: the cache as the server has it. *)
  if not warm then Ba_workloads.Profiled.set_budget_mb Workloads.churn_cache_mb;
  Ba_workloads.Profiled.clear ();
  let setup = Span.create () and sp = Span.create () in
  let k_setup = Mirror.counts () and k = Mirror.counts () in
  if warm then
    List.iter
      (fun (r : Reqs.t) ->
        ignore
          (Mirror.profiled (Some setup) k_setup ~max_steps:r.Reqs.steps
             (Option.get (Ba_workloads.Spec.by_name r.Reqs.workload))))
      (Reqs.warm_fill ());
  let failed = ref server_failed in
  let check r d = if Hashtbl.find_opt expected (Reqs.key r) <> Some d then incr failed in
  (* Untraced: the handler itself, timed per request kind, before and
     after the traced pass; each pass starts from the same cache state. *)
  let per_kind = Hashtbl.create 4 in
  let untraced () =
    if not warm then Ba_workloads.Profiled.clear ();
    let t0 = Util.now_ns () in
    List.iteri
      (fun id r ->
        let t = Util.now_ns () in
        let resp = Ba_serve.Handler.handle (Reqs.to_request ~id r) in
        let ms = Int64.to_float (Int64.sub (Util.now_ns ()) t) /. 1e6 in
        let kind = Ba_serve.Protocol.kind_name r.Reqs.kind in
        Hashtbl.replace per_kind kind (ms :: Option.value ~default:[] (Hashtbl.find_opt per_kind kind));
        check r (Reqs.body_digest resp.Ba_serve.Protocol.body))
      requests;
    Util.seconds_since t0
  in
  let before = untraced () in
  if not warm then Ba_workloads.Profiled.clear ();
  let (), traced_s, gc_minor, gc_major, lru =
    around (fun () -> List.iteri (fun id r -> check r (Mirror.handle (Some sp) k ~id r)) requests)
  in
  let untraced_s = (before +. untraced ()) /. 2.0 in
  let c =
    {
      workload;
      seed;
      setup;
      sp;
      k_setup;
      k;
      untraced_s;
      traced_s;
      gc_minor;
      gc_major;
      lru;
      probe_steps = Reqs.warm_steps;
      json =
        (let bytes = float_of_int (max 1 k.Mirror.response_bytes) in
         (Span.busy_s sp "json.encode" *. 1e9 /. bytes, Span.busy_s sp "json.decode" *. 1e9 /. bytes));
    }
  in
  let extra =
    (("pool.cpu_over_wall", cpu_over_wall, "ratio") :: server_extra) @ handler_ms ~steps:Reqs.warm_steps per_kind
  in
  let attempted = server_attempted + (3 * traced_requests) in
  { Out.correct = !failed = 0; attempted; failed = !failed; metrics = metrics c ~extra }

let run ~workload ~seed =
  match workload with
  | "tables" -> tables ~seed
  | "serve-warm" -> serve ~warm:true ~workload ~seed
  | _ -> serve ~warm:false ~workload ~seed
