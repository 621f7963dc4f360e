(* The repository benchmark.

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
     bash perfbench/run.sh --selfcheck
     bash perfbench/run.sh --expect

   Workloads: [tables] (the `experiments all` batch), [serve-warm] and
   [serve-churn] (closed loops against `branch_align serve`).  With
   [--trace 0] the run measures the end-to-end metrics with no spans; with
   [--trace 1] it makes one traced run on a single domain and reports the
   per-layer metrics (see traced.ml).  The last line of stdout is the JSON
   result; the lines before it are a host block and a human-readable
   report. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload tables|serve-warm|serve-churn --seed N --seconds S --trace 0|1\n\
    \       perfbench --selfcheck | --expect";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args argv =
  let rec go a = function
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | [] -> a
    | _ -> usage ()
  in
  try go { workload = ""; seed = 0; seconds = 10.0; trace = false } argv
  with Failure _ -> usage ()

let () =
  (* A server that dies mid-request must show up as failed requests, not
     as a SIGPIPE that kills the benchmark without a result. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "--expect" ] -> Expect.run ()
  | [ "--selfcheck" ] -> exit (Selfcheck.run ())
  | argv ->
    let a = parse_args argv in
    if not (List.mem a.workload Workloads.names) then usage ();
    let result =
      if a.trace then Traced.run ~workload:a.workload ~seed:a.seed
      else Workloads.run ~workload:a.workload ~seed:a.seed ~seconds:a.seconds
    in
    Out.print result
